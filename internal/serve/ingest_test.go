package serve

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// feedFaults stalls the feed over [stallFrom, stallTo) and multiplies
// prices by spike over [spikeFrom, spikeTo); builds never fail.
type feedFaults struct {
	stallFrom, stallTo, spikeFrom, spikeTo int
	spike                                  float64
}

func (f feedFaults) FeedStalled(slot int) bool    { return slot >= f.stallFrom && slot < f.stallTo }
func (f feedFaults) BuildFails(int) bool          { return false }
func (f feedFaults) BuildDelaySlots(int) int      { return 0 }
func (f feedFaults) DeadlineSkewMicros(int) int64 { return 0 }
func (f feedFaults) SpikeFactor(slot int) float64 {
	if slot >= f.spikeFrom && slot < f.spikeTo {
		return f.spike
	}
	return 1
}

// TestIngestBacklogMatchesPush feeds three markets through Ingest, which
// backlogs prices and slides them in batches, and a reference window
// per market through one Push per accepted price. At every build the
// table must carry the reference snapshot's fingerprint and size and
// answer every request as a table built from the reference does. The
// schedule holds a feed stall, a price spike, a NaN and a +Inf, builds
// before and after the 2,000-slot window fills, and Ingests that fill
// the backlog to its bound. Two markets are fed dwell-model traces, so
// their batches sort by run; the third i.i.d. prices. Health must count
// the backlogged prices without sliding them into the window.
func TestIngestBacklogMatchesPush(t *testing.T) {
	const slots = 8801
	faults := feedFaults{stallFrom: 300, stallTo: 340, spikeFrom: 2500, spikeTo: 2600, spike: 4}
	s := mustServer(t, Config{
		Types:             []instances.Type{instances.R3XLarge, instances.R32XL, instances.C34XL},
		WindowSlots:       2000,
		MinSamples:        100,
		RebuildEvery:      1100,
		FreshForSlots:     1 << 20,
		StaleForSlots:     1 << 21,
		ExecGridHours:     []float64{1, 4},
		RecoveryGridHours: []float64{60.0 / 3600.0, 600.0 / 3600.0},
		Faults:            faults,
	})
	r3, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: 31, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r32, err := trace.Generate(instances.R32XL, trace.GenOptions{Days: 31, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	iid := make([]float64, slots)
	for i := range iid {
		iid[i] = 0.05 + 0.5*rng.Float64()
	}
	feeds := map[instances.Type]func(slot int) float64{
		instances.R3XLarge: r3.At,
		instances.R32XL:    r32.At,
		instances.C34XL:    func(slot int) float64 { return iid[slot] },
	}
	bad := map[[2]int]float64{{0, 500}: math.NaN(), {1, 2300}: math.Inf(1)}

	refs := make([]*dist.WindowedECDF, len(s.byIdx))
	for i := range refs {
		refs[i], _ = dist.NewWindowedECDF(2000, 0)
	}
	var atBound, buildsFilling, buildsFull int
	for slot := 0; slot < slots; slot++ {
		s.SetSlot(slot)
		for i, ms := range s.byIdx {
			price := feeds[ms.key.Type](slot)
			x, isBad := bad[[2]int{i, slot}]
			if isBad {
				price = x
			}
			backlog, n, last := len(ms.backlog), ms.window.N(), ms.lastIngest
			err := s.Ingest(ms.key, slot, price)
			switch {
			case faults.FeedStalled(slot):
				if err != nil {
					t.Fatalf("slot %d: stalled Ingest: %v", slot, err)
				}
			case isBad:
				if !errors.Is(err, dist.ErrBadParam) {
					t.Fatalf("slot %d: Ingest(%v) = %v, want dist.ErrBadParam", slot, price, err)
				}
				if err := refs[i].Push(price); !errors.Is(err, dist.ErrBadParam) {
					t.Fatalf("slot %d: Push(%v) = %v, want dist.ErrBadParam", slot, price, err)
				}
				if len(ms.backlog) != backlog || ms.window.N() != n || ms.lastIngest != last {
					t.Fatalf("slot %d: rejected price changed the market", slot)
				}
			default:
				if err != nil {
					t.Fatalf("slot %d: Ingest: %v", slot, err)
				}
				if err := refs[i].Push(price * faults.SpikeFactor(slot)); err != nil {
					t.Fatal(err)
				}
				if backlog == ingestBacklog-1 {
					atBound++
					if len(ms.backlog) != 0 || ms.window.N() != min(n+ingestBacklog, 2000) {
						t.Fatalf("slot %d: the Ingest that filled the backlog left %d backlogged, window %d",
							slot, len(ms.backlog), ms.window.N())
					}
				}
			}
		}
		if slot == 1500 || slot == 3900 {
			backlogs := make([]int, len(s.byIdx))
			for i, ms := range s.byIdx {
				backlogs[i] = len(ms.backlog)
			}
			for i, kh := range s.Health().Keys {
				if kh.WindowN != refs[i].N() {
					t.Fatalf("slot %d: Health counts %d samples in %s, want %d", slot, kh.WindowN, kh.Key, refs[i].N())
				}
				if len(s.byIdx[i].backlog) != backlogs[i] || backlogs[i] == 0 {
					t.Fatalf("slot %d: Health moved %s's backlog of %d prices", slot, kh.Key, backlogs[i])
				}
			}
		}

		recs := s.MaybeRebuild(slot)
		for _, rec := range recs {
			if rec.Event != BuildOK {
				t.Fatalf("slot %d: unexpected build event %s", slot, rec.EventS)
			}
			i := marketIndex(s, rec.Key)
			ms, ref := s.byIdx[i], refs[i]
			if ref.N() < 2000 {
				buildsFilling++
			} else {
				buildsFull++
			}
			snap, err := ref.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			tbl := s.Table(ms.key)
			if tbl.Fingerprint != snap.Fingerprint() || tbl.Samples != snap.N() {
				t.Fatalf("slot %d %s: table fingerprint %x over %d samples, pushed window %x over %d",
					slot, rec.Key, tbl.Fingerprint, tbl.Samples, snap.Fingerprint(), snap.N())
			}
			want := buildTable(ms.key, ms.spec.OnDemand, snap, tbl.Version, tbl.BuiltSlot, slot,
				s.cfg.ExecGridHours, s.cfg.RecoveryGridHours, timeslot.DefaultSlot)
			for _, exec := range []float64{0.5, 1, 3, 4, 9} {
				for _, rec := range []float64{0, 30.0 / 3600, 60.0 / 3600, 300.0 / 3600, 600.0 / 3600, 1000.0 / 3600} {
					q, ei, rj := tbl.Resolve(exec, rec)
					wq, wei, wrj := want.Resolve(exec, rec)
					if q != wq || ei != wei || rj != wrj {
						t.Fatalf("slot %d %s: Resolve(%v, %v) = %+v (%d, %d), pushed window gives %+v (%d, %d)",
							slot, ms.key, exec, rec, q, ei, rj, wq, wei, wrj)
					}
				}
			}
		}
	}
	if atBound < 2 || buildsFilling < 2 || buildsFull < 2 {
		t.Fatalf("schedule missed a case: %d Ingests at the backlog bound, %d builds while the window filled, %d with it full",
			atBound, buildsFilling, buildsFull)
	}
}

// marketIndex returns the market index of a BuildRecord key.
func marketIndex(s *Server, key string) int {
	for i, ms := range s.byIdx {
		if ms.key.String() == key {
			return i
		}
	}
	return -1
}
