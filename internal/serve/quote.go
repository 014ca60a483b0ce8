package serve

// Quote answers one bid-advisory request. This is the hot path: one
// atomic table load, a grid resolve, and an audit append — no locks
// beyond the audit/admission mutexes, no allocations (the benchmark
// gate in cmd/perfgate holds it to 0 allocs/op).
//
// Decision order, fixed and exhaustive — every request exits with
// exactly one Outcome:
//
//	draining → invalid → deadline-unmeetable → out-of-tokens →
//	cold → ladder-refuse → Eq.14-refuse → emit-deadline → served
//
// Admission runs *before* the table is consulted: shedding protects
// the server, refusing is a business answer, and the conservation
// invariant (admitted = served + refused) depends on the split.
func (s *Server) Quote(req QuoteRequest) (QuoteResponse, Outcome) {
	slot := int(s.slot.Load())
	req = req.withDeadline()
	// Clock-skew chaos: a skewed client clock shortens (positive
	// skew) or extends (negative) the effective deadline budget.
	deadline := req.DeadlineMicros - s.deadlineSkew(slot)

	rec := AuditRecord{
		Slot:           int32(slot),
		KeyIdx:         -1,
		Class:          req.Class,
		NowMicros:      req.NowMicros,
		DeadlineMicros: deadline,
		ExecHours:      req.ExecHours,
		RecHours:       req.RecoverySeconds / 3600,
	}

	if s.draining.Load() {
		return s.finish(rec, QuoteResponse{}, OutcomeRefusedDraining)
	}
	ms, ok := s.markets[Key{Region: s.cfg.Region, Type: req.Type}]
	if !ok || req.Validate() != nil {
		return s.finish(rec, QuoteResponse{}, OutcomeRejectedInvalid)
	}
	rec.KeyIdx = int16(ms.idx)

	switch s.admit.Admit(req.Class, req.NowMicros, deadline) {
	case ShedDeadline:
		return s.finish(rec, QuoteResponse{}, OutcomeShedDeadline)
	case ShedCapacity:
		return s.finish(rec, QuoteResponse{}, OutcomeShedCapacity)
	}

	tbl := ms.table.Load()
	if tbl == nil {
		return s.finish(rec, QuoteResponse{}, OutcomeRefusedCold)
	}
	rec.Version = tbl.Version
	rec.Fingerprint = tbl.Fingerprint
	age := slot - tbl.BuiltSlot
	rec.AgeSlots = int32(age)
	tier := s.tierForAge(age)
	rec.Tier = tier
	if tier == TierRefuse {
		return s.finish(rec, QuoteResponse{}, OutcomeRefusedStale)
	}

	q, execI, recJ := tbl.Resolve(req.ExecHours, req.RecoverySeconds/3600)
	if !q.Feasible {
		// Eq. 14 (or the one-time no-interruption constraint) rules
		// the job out under this market: refused in every tier.
		return s.finish(rec, QuoteResponse{}, OutcomeRefusedInfeasible)
	}

	// Emit-time deadline re-check: with a real clock wired in
	// (spotbidd), time passed while we worked; either way nothing is
	// ever emitted past its deadline.
	emit := req.NowMicros
	if s.cfg.NowMicros != nil {
		emit = s.cfg.NowMicros()
	}
	if emit > deadline {
		return s.finish(rec, QuoteResponse{}, OutcomeShedDeadline)
	}
	rec.EmitMicros = emit
	rec.Price = q.Price

	resp := QuoteResponse{
		Key:            ms.key,
		Tier:           tier.String(),
		AgeSlots:       age,
		Version:        tbl.Version,
		Samples:        tbl.Samples,
		ExecHours:      tbl.ExecGrid[execI],
		Quote:          q,
		EmitMicros:     emit,
		DeadlineMicros: deadline,
	}
	if recJ >= 0 {
		resp.RecoverySeconds = tbl.RecGrid[recJ] * 3600
	}
	out := OutcomeServedFresh
	if tier == TierStale {
		out = OutcomeServedStale
		resp.Warning = StaleWarning
	}
	s.mAge.Observe(float64(age))
	return s.finish(rec, resp, out)
}

// finish stamps the outcome, appends the audit record, bumps the
// metric, and hands the response back.
func (s *Server) finish(rec AuditRecord, resp QuoteResponse, o Outcome) (QuoteResponse, Outcome) {
	rec.Outcome = o
	s.audit.append(rec)
	s.mOutcome[o].Inc()
	return resp, o
}
