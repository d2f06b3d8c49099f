package adversary

import "testing"

// The three-way erasure audit of audit_test.go, for the external tests.
type AuditTally = auditTally

var AuditAgainstOracle = auditAgainstOracle

func (a *auditTally) Add(b auditTally)    { a.add(b) }
func (a auditTally) Require(t *testing.T) { t.Helper(); a.require(t) }

// CheckPatches makes every erasure a adopts by patching its live session
// compare that session with buildWithout's (see checkPatches).
func CheckPatches(t *testing.T, a *Adversary) { checkPatches(t, a, new(int)) }
