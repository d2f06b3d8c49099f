package adversary

import "testing"

// The three-way erasure audit of audit_test.go, for the external tests.
type AuditTally = auditTally

var AuditAgainstOracle = auditAgainstOracle

func (a *auditTally) Add(b auditTally)    { a.add(b) }
func (a auditTally) Require(t *testing.T) { t.Helper(); a.require(t) }
