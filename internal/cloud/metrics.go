package cloud

import (
	"repro/internal/instances"
	"repro/internal/obs"
)

// regionMetrics caches the region's metric handles so the per-slot hot
// path does one nil check plus direct counter/gauge operations — no
// map lookups, no allocations.
//
// Metric names (see DESIGN.md §7 for the full contract):
//
//	cloud.slots                     counter  market slots settled
//	cloud.requests.submitted        counter  spot requests accepted by the API
//	cloud.requests.cancelled        counter  user cancellations
//	cloud.bids.accepted             counter  launches (the region's N(t) aggregate)
//	cloud.bids.outbid               counter  provider terminations
//	cloud.bids.outbid_delayed       counter  out-bid notices deferred by the injector
//	cloud.bids.blocked              counter  launches refused by capacity outages
//	cloud.instances.ondemand        counter  on-demand launches
//	cloud.instances.user_terminated counter  user-initiated terminations
//	cloud.api_faults                counter  injected API failures surfaced to callers
//	cloud.queue.open                gauge    open (pending) spot requests after settling — L(t)'s analog
//	cloud.instances.running         gauge    instances running through the slot
//	cloud.price.<type>              gauge    the slot's spot price π(t)
//	cloud.instance_lifetime_slots   histogram  slots from launch to termination
//	cloud.slot_charge_usd           histogram  per-instance-slot charges
type regionMetrics struct {
	slots, submitted, cancelled     *obs.Counter
	accepted, outbid, outbidDelayed *obs.Counter
	blocked, odLaunches, userTerm   *obs.Counter
	apiFaults                       *obs.Counter
	queueOpen, running              *obs.Gauge
	price                           map[instances.Type]*obs.Gauge
	lifetime, charge                *obs.Histogram
}

// Counts are the region's own tallies of the events a health score
// reads. They grow at the sites that feed the same-named registry
// counters, whether or not a registry is installed, so a reader
// depends on the region alone: not on a metric name, and not on who
// else shares the registry.
type Counts struct {
	// APIFaults counts injected API failures surfaced to callers
	// (cloud.api_faults).
	APIFaults int64
	// Blocked counts launches refused by capacity outages
	// (cloud.bids.blocked).
	Blocked int64
	// Outbid counts provider terminations (cloud.bids.outbid).
	Outbid int64
	// Accepted counts spot launches (cloud.bids.accepted).
	Accepted int64
}

// Counts returns the region's event tallies so far.
func (r *Region) Counts() Counts { return r.counts }

// SetMetrics installs a metrics registry on the region. Install it
// before the first Tick so every slot is covered; nil — the default —
// removes instrumentation entirely, and a region without a registry
// behaves bit-identically to one that never had the hooks.
func (r *Region) SetMetrics(m *obs.Registry) {
	if m == nil {
		r.met = nil
		return
	}
	rm := &regionMetrics{
		slots:         m.Counter("cloud.slots"),
		submitted:     m.Counter("cloud.requests.submitted"),
		cancelled:     m.Counter("cloud.requests.cancelled"),
		accepted:      m.Counter("cloud.bids.accepted"),
		outbid:        m.Counter("cloud.bids.outbid"),
		outbidDelayed: m.Counter("cloud.bids.outbid_delayed"),
		blocked:       m.Counter("cloud.bids.blocked"),
		odLaunches:    m.Counter("cloud.instances.ondemand"),
		userTerm:      m.Counter("cloud.instances.user_terminated"),
		apiFaults:     m.Counter("cloud.api_faults"),
		queueOpen:     m.Gauge("cloud.queue.open"),
		running:       m.Gauge("cloud.instances.running"),
		price:         make(map[instances.Type]*obs.Gauge, len(r.traces)),
		lifetime:      m.Histogram("cloud.instance_lifetime_slots", obs.SlotBuckets),
		charge:        m.Histogram("cloud.slot_charge_usd", obs.PriceBuckets),
	}
	for t := range r.traces {
		rm.price[t] = m.Gauge("cloud.price." + string(t))
	}
	r.met = rm
}

// observeSlot publishes the settled slot's market state: spot prices,
// queue length (the open requests Tick left), and running-instance
// count (the instances Tick billed).
func (r *Region) observeSlot(slot, open, running int) {
	rm := r.met
	if rm == nil {
		return
	}
	rm.slots.Inc()
	for t, g := range rm.price {
		g.Set(r.traces[t].At(slot))
	}
	rm.queueOpen.Set(float64(open))
	rm.running.Set(float64(running))
}

// observeTermination records the lifetime of an instance that stopped
// running at slot.
func (r *Region) observeTermination(inst *Instance, slot int) {
	if r.met == nil {
		return
	}
	r.met.lifetime.Observe(float64(slot - inst.LaunchedSlot))
}
