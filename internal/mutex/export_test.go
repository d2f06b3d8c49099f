package mutex

// Handles returns the algorithm handle each process is bound to.
func Handles(s *Session) []Handle {
	hs := make([]Handle, len(s.bodies))
	for i, b := range s.bodies {
		hs[i] = b.handle
	}
	return hs
}
