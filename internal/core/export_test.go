package core

// Hooks for the external test package, whose suites drive the
// workload -> store -> runner pipeline and so cannot import it from
// package core.

var FirstClosedRW = firstClosedRW

// PassedGuarantees is the all-clear guarantee column.
var PassedGuarantees = passedGuarantees

// SessionGuarantees runs the guarantee scan whatever the SER rung says.
func (d *Deps) SessionGuarantees() []GuaranteeVerdict { return d.sessionGuarantees() }

// IncrementalAdd feeds t to inc as CheckStreamCtx does: as the init
// transaction when isInit holds, finding keys through the source's ids
// when ids is not nil.
var IncrementalAdd = (*Incremental).add

// ReadAheadBatch is how many transactions CheckStreamCtx hands its
// checker at once.
const ReadAheadBatch = readAheadBatch
