package mutex

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"rme/internal/memory"
	"rme/internal/sim"
	"rme/internal/word"
)

// Config describes a driven RME session: an algorithm instantiated on a
// simulated machine with each process performing a number of super-passages.
type Config struct {
	// Procs is the number of processes n.
	Procs int
	// Width is the word size w in bits.
	Width word.Width
	// Model selects CC or DSM accounting.
	Model sim.Model
	// Algorithm is the lock under test.
	Algorithm Algorithm
	// Passes is the number of super-passages per process (default 1).
	Passes int
	// NoTrace disables trace retention on the underlying machine.
	NoTrace bool
	// MaxSteps caps the machine's action count (0 = sim default).
	MaxSteps int
}

func (c Config) withDefaults() Config {
	if c.Passes == 0 {
		c.Passes = 1
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Algorithm == nil {
		return errors.New("mutex: nil algorithm")
	}
	if c.Passes < 0 {
		return fmt.Errorf("mutex: negative Passes (%d)", c.Passes)
	}
	return nil
}

// PassageStat records one passage of one process: it begins with the first
// shared-memory step of the entry or recover protocol and ends with a crash
// step or with the end of the super-passage (paper §2).
type PassageStat struct {
	Proc  int
	Super int // super-passage index for this process
	// Recovery marks passages that began with the recover protocol.
	Recovery bool
	// EndedByCrash marks passages terminated by a crash step.
	EndedByCrash bool
	Steps        int
	RMRsCC       int
	RMRsDSM      int
}

// RMRs returns the passage's RMR count under the given model.
func (p PassageStat) RMRs(model sim.Model) int {
	if model == sim.DSM {
		return p.RMRsDSM
	}
	return p.RMRsCC
}

// Session is a driven RME execution. All methods must be called from one
// controller goroutine.
type Session struct {
	cfg      Config
	mach     *sim.Machine
	inst     Instance
	csCell   memory.Cell
	bodies   []*driverBody
	programs []sim.Program // the bodies as Programs, reused by every Start
	lastTags []int
	csOwner  int // process owning the CS (incl. crashed-in-CS holders), or -1
	csOrder  []int
	errs     []string
	// The safety monitor's incremental state. Every tag write marks its
	// process in tagDirty, so observe visits only processes whose tag may
	// have changed; csTagged holds the processes whose last observed tag is
	// TagCS, and inCS counts them.
	tagDirty word.Bitset
	csTagged word.Bitset
	inCS     int
	// sym is the instance's process-symmetry declaration (nil if none),
	// extended with the session's own cs-witness cell. It is built lazily on
	// the first Symmetry/CanonicalStateKey call so sessions that never ask
	// (benchmarks, the service layer) pay nothing.
	sym     *sim.Symmetry
	symInit bool
	// poised is the retained scratch buffer for per-sweep poised snapshots in
	// RunRoundRobin/RunRandom (sim.Machine.AppendPoised), so driving a session
	// allocates nothing per scheduling round.
	poised []int
}

// NewSession builds the machine, instantiates the algorithm, and starts the
// driver processes (each poised at its first entry step).
func NewSession(cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mach, err := sim.New(sim.Config{
		Procs:    cfg.Procs,
		Width:    cfg.Width,
		Model:    cfg.Model,
		NoTrace:  cfg.NoTrace,
		MaxSteps: cfg.MaxSteps,
	})
	if err != nil {
		return nil, err
	}
	inst, err := cfg.Algorithm.Make(mach, cfg.Procs)
	if err != nil {
		return nil, fmt.Errorf("mutex: instantiate %s: %w", cfg.Algorithm.Name(), err)
	}
	s := &Session{
		cfg:      cfg,
		mach:     mach,
		inst:     inst,
		csCell:   mach.NewCell("cs-witness", memory.Shared, 0),
		bodies:   make([]*driverBody, cfg.Procs),
		programs: make([]sim.Program, cfg.Procs),
		lastTags: make([]int, cfg.Procs),
		csOwner:  -1,
		tagDirty: word.NewBitset(cfg.Procs),
		csTagged: word.NewBitset(cfg.Procs),
	}
	for i := 0; i < cfg.Procs; i++ {
		b := &driverBody{s: s, id: i}
		s.bodies[i] = b
		s.programs[i] = b
	}
	if err := s.start(); err != nil {
		mach.Close()
		return nil, err
	}
	return s, nil
}

// start launches the bodies on the machine and takes the monitor's
// baseline: the tags the bodies set before their first step are the
// starting point, not transitions.
func (s *Session) start() error {
	if err := s.mach.Start(s.programs); err != nil {
		return err
	}
	s.tagDirty.ClearAll()
	s.csTagged.ClearAll()
	s.inCS = 0
	for p := range s.lastTags {
		s.lastTags[p] = s.mach.Tag(p)
		if s.lastTags[p] == TagCS {
			s.csTagged.Set(p)
			s.inCS++
		}
	}
	return nil
}

// Machine exposes the underlying simulator (for adversaries and checkers).
func (s *Session) Machine() *sim.Machine { return s.mach }

// Reset returns the session to its initial state without rebuilding it: the
// machine's cells revert to their initial values (sim.Machine.Reset), the
// algorithm instance is reused (its mutable state lives entirely in cells,
// per the Handle crash contract), the safety monitors clear, and the driver
// bodies restart poised at their first entry step. A reset session is
// observationally identical to a fresh NewSession with the same Config —
// the engine's worker pool and the replay-heavy consumers (model checker,
// adversary erasure verification) rely on this to avoid per-run machine
// construction. The machine's body goroutines survive the Reset, parked at
// the step gate, so a session that has been Reset must still be Closed.
// What a Reset still allocates is one algorithm handle per process
// (Instance.Bind in each body's Run); DESIGN.md §6 gives the counts.
func (s *Session) Reset() error {
	s.mach.Reset()
	s.csOwner = -1
	s.csOrder = s.csOrder[:0]
	s.errs = nil
	for _, b := range s.bodies {
		b.reset()
	}
	return s.start()
}

// Compatible reports whether a session built for a can be reused via Reset
// to run b: every configuration field must match. The algorithm comparison
// is by interface equality, guarded because algorithm values are not
// required to be comparable.
func Compatible(a, b Config) bool {
	a, b = a.withDefaults(), b.withDefaults()
	return a.Procs == b.Procs && a.Width == b.Width && a.Model == b.Model &&
		a.Passes == b.Passes && a.NoTrace == b.NoTrace && a.MaxSteps == b.MaxSteps &&
		sameAlgorithm(a.Algorithm, b.Algorithm)
}

func sameAlgorithm(a, b Algorithm) (eq bool) {
	defer func() {
		if recover() != nil {
			eq = false
		}
	}()
	return a == b
}

// Config returns the session configuration (with defaults applied).
func (s *Session) Config() Config { return s.cfg }

// Close releases the underlying machine and ends its body goroutines. Every
// session must be Closed, including one that has been Reset.
func (s *Session) Close() { s.mach.Close() }

// StepProc advances process p by one step and runs the safety monitors.
func (s *Session) StepProc(p int) (sim.Event, error) {
	ev, err := s.mach.Step(p)
	if err != nil {
		return ev, err
	}
	s.observe()
	return ev, nil
}

// CrashProc delivers a crash step to p and runs the safety monitors. It
// refuses to crash non-recoverable algorithms.
func (s *Session) CrashProc(p int) (sim.Event, error) {
	if !s.cfg.Algorithm.Recoverable() {
		return sim.Event{}, fmt.Errorf("mutex: algorithm %s is not recoverable", s.cfg.Algorithm.Name())
	}
	ev, err := s.mach.Crash(p)
	if err != nil {
		return ev, err
	}
	s.observe()
	return ev, nil
}

// Apply delivers one schedule action: a crash action through CrashProc,
// any other through StepProc.
func (s *Session) Apply(a sim.Action) (sim.Event, error) {
	if a.Crash {
		return s.CrashProc(a.Proc)
	}
	return s.StepProc(a.Proc)
}

// Replay re-executes a recorded schedule: it delivers each action through
// Apply, so the safety monitors observe every step, and wraps the first
// failure with the action's index.
func (s *Session) Replay(sched sim.Schedule) error {
	for i, a := range sched {
		if _, err := s.Apply(a); err != nil {
			return fmt.Errorf("replay action %d (%s): %w", i, a, err)
		}
	}
	return nil
}

// CrashAllProcs delivers a crash step to every live process at once — the
// system-wide failure model of Golab–Hendler [11] and Jayanti–Jayanti–Joshi
// [14], which the paper contrasts with its individual-crash model (§4: the
// lower bound "inherently relies on individual process crashes", and
// constant-RMR RME is possible when all processes crash together).
func (s *Session) CrashAllProcs() error {
	if !s.cfg.Algorithm.Recoverable() {
		return fmt.Errorf("mutex: algorithm %s is not recoverable", s.cfg.Algorithm.Name())
	}
	for p := 0; p < s.cfg.Procs; p++ {
		if s.mach.ProcDone(p) {
			continue
		}
		if _, err := s.CrashProc(p); err != nil {
			return err
		}
	}
	return nil
}

// observe processes phase-tag transitions and maintains the
// mutual-exclusion / critical-section-reentry monitor: ownership of the CS
// is taken when a process's tag enters TagCS and released when it enters
// TagExit; a crashed CS holder keeps ownership until it re-enters and exits
// (the CSR property). Only processes whose tag was written since the last
// observe are visited, in ascending id order, so a step costs the monitor
// time proportional to the tags it changed, not to n.
func (s *Session) observe() {
	for wi, w := range s.tagDirty {
		for w != 0 {
			s.observeTag(wi*word.MaxBits + bits.TrailingZeros64(w))
			w &= w - 1
		}
		s.tagDirty[wi] = 0
	}
	if s.inCS < 2 {
		return
	}
	// Direct occupancy check (belt and braces): at most one process tagged
	// CS; report each adjacent pair of occupants in ascending order.
	in := -1
	s.csTagged.ForEach(func(p int) {
		if in != -1 {
			s.fail(fmt.Sprintf("mutual exclusion violated: p%d and p%d tagged CS simultaneously (step %d)",
				in, p, s.mach.Steps()))
		}
		in = p
	})
}

// observeTag applies p's tag transition, if its tag changed since the last
// observation.
func (s *Session) observeTag(p int) {
	cur := s.mach.Tag(p)
	prev := s.lastTags[p]
	if cur == prev {
		return
	}
	switch {
	case cur == TagCS:
		if s.csOwner != -1 && s.csOwner != p {
			s.fail(fmt.Sprintf("mutual exclusion violated: p%d entered the CS while p%d holds it (step %d)",
				p, s.csOwner, s.mach.Steps()))
		}
		if s.csOwner != p {
			s.csOrder = append(s.csOrder, p)
		}
		s.csOwner = p
	case prev == TagCS && cur != TagRecover:
		// Leaving the CS forward (exit/remainder) releases ownership; a
		// crash (tag moves to TagRecover) keeps it, per the CSR property.
		if s.csOwner == p {
			s.csOwner = -1
		}
	}
	if prev == TagCS {
		s.csTagged.Clear(p)
		s.inCS--
	}
	if cur == TagCS {
		s.csTagged.Set(p)
		s.inCS++
	}
	s.lastTags[p] = cur
}

func (s *Session) fail(msg string) { s.errs = append(s.errs, msg) }

// Violations returns all safety violations observed so far.
func (s *Session) Violations() []string {
	out := make([]string, len(s.errs))
	copy(out, s.errs)
	return out
}

// ErrStuck reports that no process can make progress.
var ErrStuck = errors.New("mutex: execution stuck (deadlock or lost wakeup)")

// RunRoundRobin drives all processes fairly (each poised process takes one
// step per sweep) until every process finishes its super-passages.
func (s *Session) RunRoundRobin() error {
	for !s.mach.AllDone() {
		poised := s.mach.AppendPoised(s.poised)
		s.poised = poised
		if len(poised) == 0 {
			return ErrStuck
		}
		for _, p := range poised {
			if s.mach.ProcDone(p) || !s.mach.Poised(p) {
				continue
			}
			if _, err := s.StepProc(p); err != nil {
				return err
			}
		}
	}
	return s.violationErr()
}

// RandomRunOptions tunes RunRandom.
type RandomRunOptions struct {
	// CrashProb is the per-step probability of delivering a crash instead of
	// the chosen step (only for recoverable algorithms).
	CrashProb float64
	// MaxCrashesPerProc caps crashes per process; 0 means no crashes, and a
	// negative value means unlimited.
	MaxCrashesPerProc int
}

// RunRandom drives the session with a uniformly random poised process each
// step, optionally injecting crashes, until all processes finish.
func (s *Session) RunRandom(seed int64, opts RandomRunOptions) error {
	rng := rand.New(rand.NewSource(seed))
	for !s.mach.AllDone() {
		poised := s.mach.AppendPoised(s.poised)
		s.poised = poised
		if len(poised) == 0 {
			return ErrStuck
		}
		// Crashes may hit any live process — including ones parked on a
		// spin, which is an important recovery window.
		if s.cfg.Algorithm.Recoverable() && opts.CrashProb > 0 && rng.Float64() < opts.CrashProb {
			var victims []int
			for p := 0; p < s.cfg.Procs; p++ {
				if s.mach.ProcDone(p) {
					continue
				}
				if opts.MaxCrashesPerProc >= 0 && s.mach.Crashes(p) >= opts.MaxCrashesPerProc {
					continue
				}
				victims = append(victims, p)
			}
			if len(victims) > 0 {
				if _, err := s.CrashProc(victims[rng.Intn(len(victims))]); err != nil {
					return err
				}
				continue
			}
		}
		if _, err := s.StepProc(poised[rng.Intn(len(poised))]); err != nil {
			return err
		}
	}
	return s.violationErr()
}

func (s *Session) violationErr() error {
	if len(s.errs) > 0 {
		return fmt.Errorf("mutex: %d safety violations; first: %s", len(s.errs), s.errs[0])
	}
	return nil
}

// CSOrder returns the order in which processes entered the critical
// section (one entry per acquisition; a crashed holder's re-entry is not
// repeated). Used by the fairness experiment to compare grant order against
// arrival order.
func (s *Session) CSOrder() []int {
	out := make([]int, len(s.csOrder))
	copy(out, s.csOrder)
	return out
}

// Stats returns all recorded passage statistics, processes in id order.
func (s *Session) Stats() []PassageStat {
	var out []PassageStat
	for _, b := range s.bodies {
		out = append(out, b.stats...)
	}
	return out
}

// CompletedPasses returns, per process, the number of passages that were not
// crash-terminated. Every super-passage contributes exactly one such passage
// (its last one); recover-at-idle sweeps may add more, so a run satisfied its
// workload when every entry is >= Config().Passes — the completion half of
// the critical-section re-entry obligation: a crashed process must resume and
// finish its interrupted super-passage, not abandon it.
func (s *Session) CompletedPasses() []int {
	completed := make([]int, s.cfg.Procs)
	for _, st := range s.Stats() {
		if !st.EndedByCrash {
			completed[st.Proc]++
		}
	}
	return completed
}

// MaxPassageRMRs returns the maximum RMRs any process incurred in a single
// passage — the paper's RMR complexity measure — under the given model.
func (s *Session) MaxPassageRMRs(model sim.Model) int {
	maxRMR := 0
	for _, st := range s.Stats() {
		if r := st.RMRs(model); r > maxRMR {
			maxRMR = r
		}
	}
	return maxRMR
}

// TotalRMRs sums RMRs across all processes under the given model.
func (s *Session) TotalRMRs(model sim.Model) int {
	total := 0
	for p := 0; p < s.cfg.Procs; p++ {
		total += s.mach.RMRsIn(model, p)
	}
	return total
}

// driverBody is the per-process driver program. Its bookkeeping fields
// (completed, inSuper, snapshots) are harness meta-state outside the paper's
// model: they survive crashes on purpose, so that measurement does not
// perturb the algorithm under test. All state of the *algorithm* follows the
// crash contract (see Handle).
type driverBody struct {
	s  *Session
	id int

	p      *sim.Proc
	handle Handle

	completed  int
	inSuper    bool
	stats      []PassageStat
	passOpen   bool
	startCC    int
	startDSM   int
	startSteps int
}

var _ sim.Program = (*driverBody)(nil)

// reset clears the body for a session Reset, keeping the stats buffer's
// capacity. The handle is re-bound in Run.
func (b *driverBody) reset() {
	b.p = nil
	b.handle = nil
	b.completed = 0
	b.inSuper = false
	b.stats = b.stats[:0]
	b.passOpen = false
	b.startCC = 0
	b.startDSM = 0
	b.startSteps = 0
}

// Run executes the process's super-passages from the initial state.
func (b *driverBody) Run(p *sim.Proc) {
	b.p = p
	b.handle = b.s.inst.Bind(p)
	b.runRemaining()
}

// Recover is invoked by the machine after each crash step.
func (b *driverBody) Recover(p *sim.Proc) {
	b.p = p
	b.closeCrashedPassage()
	if b.inSuper {
		b.beginPassage(true)
		b.setTag(TagRecover)
		switch st := b.handle.Recover(); st {
		case RecoverAcquired:
			b.criticalSectionThenExit()
		case RecoverReleased:
			b.finishSuper()
		case RecoverIdle:
			// The crash preempted the very first entry step: the algorithm
			// never became visible, so the super-passage never started.
			b.closePassage(false)
			b.inSuper = false
		default:
			panic(fmt.Sprintf("mutex: invalid recover status %v", st))
		}
	} else {
		// Crash at a super-passage boundary: the algorithm must agree that
		// nothing was in progress.
		b.beginPassage(true)
		b.setTag(TagRecover)
		if st := b.handle.Recover(); st != RecoverIdle {
			panic(fmt.Sprintf("mutex: recover at idle returned %v", st))
		}
		b.closePassage(false)
	}
	b.runRemaining()
}

// runRemaining runs the super-passages the process still owes, then leaves
// it in the remainder section.
func (b *driverBody) runRemaining() {
	for b.completed < b.s.cfg.Passes {
		b.runSuper()
	}
	b.setTag(TagRemainder)
}

// setTag publishes the body's phase tag and marks the process for the
// session's monitor. It runs on the body goroutine while the controller is
// blocked at the step gate, which orders it before the next observe.
func (b *driverBody) setTag(tag int) {
	b.p.SetTag(tag)
	b.s.tagDirty.Set(b.id)
}

func (b *driverBody) runSuper() {
	b.beginPassage(false)
	b.inSuper = true
	b.setTag(TagEntry)
	b.handle.Lock()
	b.criticalSectionThenExit()
}

// criticalSectionThenExit runs the critical section — the single
// RMR-incurring step of assumption (A2) — and the exit protocol, and closes
// the super-passage.
func (b *driverBody) criticalSectionThenExit() {
	b.setTag(TagCS)
	b.p.Write(b.s.csCell, word.Word(b.id+1))
	b.setTag(TagExit)
	b.handle.Unlock()
	b.finishSuper()
}

func (b *driverBody) beginPassage(recovery bool) {
	b.passOpen = true
	b.startCC = b.p.RMRCount(sim.CC)
	b.startDSM = b.p.RMRCount(sim.DSM)
	b.startSteps = b.p.StepCount()
	if recovery {
		b.p.Mark("passage-begin-recover")
	} else {
		b.p.Mark("passage-begin")
	}
	b.stats = append(b.stats, PassageStat{Proc: b.id, Super: b.completed, Recovery: recovery})
}

// closePassage finalizes the currently open passage record.
func (b *driverBody) closePassage(crashed bool) {
	if !b.passOpen {
		return
	}
	b.passOpen = false
	st := &b.stats[len(b.stats)-1]
	st.EndedByCrash = crashed
	st.Steps = b.p.StepCount() - b.startSteps
	st.RMRsCC = b.p.RMRCount(sim.CC) - b.startCC
	st.RMRsDSM = b.p.RMRCount(sim.DSM) - b.startDSM
	if st.Steps == 0 && !crashed {
		// No shared-memory step occurred: per the paper, no passage began.
		b.stats = b.stats[:len(b.stats)-1]
	}
}

// closeCrashedPassage records the passage terminated by the crash that
// triggered this recovery (no steps have happened since the crash).
func (b *driverBody) closeCrashedPassage() {
	if !b.passOpen {
		return
	}
	// If the crash preempted the very first step, drop the empty record.
	if b.p.StepCount() == b.startSteps {
		b.passOpen = false
		b.stats = b.stats[:len(b.stats)-1]
		return
	}
	b.closePassage(true)
}

func (b *driverBody) finishSuper() {
	b.closePassage(false)
	b.inSuper = false
	b.completed++
	b.setTag(TagRemainder)
	b.p.Mark("super-passage-end")
}
