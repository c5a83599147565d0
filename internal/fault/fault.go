// Package fault is the deterministic fault-injection layer of the TMCC
// reproduction. A Plan describes which fault classes to arm and at what
// per-event probability; an Injector draws from a seeded stream and tells
// the instrumented sites (the simulator's embedded-CTE path, the MC's ML2
// payload path, the MC's DRAM request path) when to misbehave.
//
// Like internal/obs, the layer is built around a nil-safe hook: a nil
// *Injector answers "no fault" to every query without drawing randomness,
// so an injection-disabled run is byte-identical to a build without the
// package and each hot-path site pays exactly one predictable branch.
// Faults are deliberately outside the experiment engine's memoization key:
// one process runs one plan, the way one process runs one observer.
//
// Determinism contract: an Injector is owned by a single simulation run
// (runs are single-threaded) and seeded from the plan seed mixed with the
// run's identity, so a fixed (plan, run) pair yields the same fault
// schedule regardless of worker count or scheduling order. Counters are
// commutative sums, so aggregating them across runs is order-independent.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"tmcc/internal/config"
	"tmcc/internal/obs"
)

// Plan arms the fault classes. Probabilities are per-opportunity (per
// embedded-CTE use, per demand ML2 read, per DRAM operation); zero
// disables the class. The zero Plan injects nothing.
type Plan struct {
	// Seed drives the injection schedule (mixed with each run's identity).
	Seed int64

	// CTECorrupt flips a random bit of an embedded/truncated CTE before
	// the MC uses it for its speculative parallel access.
	CTECorrupt float64
	// CTEStale rewinds an embedded CTE to a neighbouring frame, modeling a
	// PTB whose embedded copy missed a migration.
	CTEStale float64

	// Payload flips a bit in a compressed ML2 payload; the MC's per-page
	// checksum detects it on the next demand read.
	Payload float64

	// Spike adds SpikeLatency to a DRAM operation's issue time.
	Spike        float64
	SpikeLatency config.Time

	// Busy makes a DRAM channel transiently reject an operation; the MC
	// backs off BusyBackoff (doubling per attempt) and retries up to
	// BusyRetries times before issuing anyway (timeout). BusyChannel
	// restricts injection to one channel index; -1 (or 0-value plans made
	// by ParsePlan) targets all channels.
	Busy        float64
	BusyBackoff config.Time
	BusyRetries int
	BusyChannel int
}

// Defaults applied by ParsePlan when a class is armed without knobs.
const (
	DefaultSpikeLatency = 250 * config.Nanosecond
	DefaultBusyBackoff  = 100 * config.Nanosecond
	DefaultBusyRetries  = 3
)

// Enabled reports whether any fault class is armed.
func (p Plan) Enabled() bool {
	return p.CTECorrupt > 0 || p.CTEStale > 0 || p.Payload > 0 || p.Spike > 0 || p.Busy > 0
}

// String renders the plan in the canonical ParsePlan syntax (classes in
// fixed order, disabled classes omitted).
func (p Plan) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("cte", p.CTECorrupt)
	add("stale", p.CTEStale)
	add("payload", p.Payload)
	if p.Spike > 0 {
		parts = append(parts, fmt.Sprintf("spike=%g:%s", p.Spike, psDuration(p.SpikeLatency)))
	}
	if p.Busy > 0 {
		parts = append(parts, fmt.Sprintf("busy=%g:%s:%d", p.Busy, psDuration(p.BusyBackoff), p.BusyRetries))
	}
	return strings.Join(parts, ",")
}

func psDuration(t config.Time) string {
	return time.Duration(t / config.Nanosecond).String()
}

// ParsePlan parses the -faults syntax: a comma-separated list of
// class[=probability[:knobs]] entries, e.g.
//
//	cte=0.02,stale=0.01,payload=0.01,spike=0.005:250ns,busy=0.005:100ns:3
//
// spike takes an optional latency (Go duration), busy an optional
// backoff (Go duration) and retry count. The Seed field is not part of
// the syntax; callers set it separately (tmccsim: -chaos-seed).
func ParsePlan(s string) (Plan, error) {
	p := Plan{
		SpikeLatency: DefaultSpikeLatency,
		BusyBackoff:  DefaultBusyBackoff,
		BusyRetries:  DefaultBusyRetries,
		BusyChannel:  -1,
	}
	s = strings.TrimSpace(s)
	if s == "" {
		return p, nil
	}
	off := 0 // byte offset of the current clause in the trimmed plan string
	for i, entry := range strings.Split(s, ",") {
		clause := strings.TrimSpace(entry)
		// Every diagnostic names the offending clause and where it sits in
		// the plan, so a long -faults string pinpoints itself: the clause's
		// 1-based index and the byte position of its first non-space rune.
		fail := func(format string, args ...any) (Plan, error) {
			return Plan{}, fmt.Errorf("fault: clause %d (%q, at byte %d): %s",
				i+1, clause, off+strings.Index(entry, clause), fmt.Sprintf(format, args...))
		}
		key, rest, _ := strings.Cut(clause, "=")
		val, knobs, _ := strings.Cut(rest, ":")
		prob, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fail("bad probability %q (want class=probability[:knobs])", val)
		}
		if prob < 0 || prob > 1 {
			return fail("probability %g outside [0,1]", prob)
		}
		switch key {
		case "cte":
			p.CTECorrupt = prob
		case "stale":
			p.CTEStale = prob
		case "payload":
			p.Payload = prob
		case "spike":
			p.Spike = prob
			if knobs != "" {
				d, err := time.ParseDuration(knobs)
				if err != nil {
					return fail("spike latency %q: %v", knobs, err)
				}
				if d < 0 {
					return fail("spike latency %q: must not be negative", knobs)
				}
				p.SpikeLatency = config.Time(d.Nanoseconds()) * config.Nanosecond
			}
		case "busy":
			p.Busy = prob
			if knobs != "" {
				bo, retries, _ := strings.Cut(knobs, ":")
				d, err := time.ParseDuration(bo)
				if err != nil {
					return fail("busy backoff %q: %v", bo, err)
				}
				if d < 0 {
					return fail("busy backoff %q: must not be negative", bo)
				}
				p.BusyBackoff = config.Time(d.Nanoseconds()) * config.Nanosecond
				if retries != "" {
					n, err := strconv.Atoi(retries)
					if err != nil || n < 1 {
						return fail("busy retries %q: want a positive integer", retries)
					}
					p.BusyRetries = n
				}
			}
		default:
			return fail("unknown class %q (want cte, stale, payload, spike, busy)", key)
		}
		off += len(entry) + 1
	}
	return p, nil
}

// Counters tallies injected faults and the recoveries they forced. All
// fields are commutative sums: adding per-run counters in any order gives
// the same aggregate, which is what makes the tmccsim fault line
// deterministic at every -j.
type Counters struct {
	CTECorrupt  uint64 // embedded CTEs bit-flipped
	CTEStale    uint64 // embedded CTEs rewound to a stale frame
	Payload     uint64 // ML2 payload checksums corrupted
	Quarantines uint64 // pages quarantined to ML1 after a checksum miss
	Spikes      uint64 // DRAM operations delayed by a latency spike
	Busy        uint64 // DRAM operations hit by transient channel busy
	Retries     uint64 // backoff retries the MC performed
	Timeouts    uint64 // retry budgets exhausted (operation issued anyway)
}

// Add folds o into c.
func (c *Counters) Add(o Counters) {
	c.CTECorrupt += o.CTECorrupt
	c.CTEStale += o.CTEStale
	c.Payload += o.Payload
	c.Quarantines += o.Quarantines
	c.Spikes += o.Spikes
	c.Busy += o.Busy
	c.Retries += o.Retries
	c.Timeouts += o.Timeouts
}

// Total returns the number of injected fault events (recovery tallies —
// quarantines, retries, timeouts — excluded).
func (c Counters) Total() uint64 {
	return c.CTECorrupt + c.CTEStale + c.Payload + c.Spikes + c.Busy
}

// String renders the counters as the fixed-order key=value line tmccsim
// prints and make smoke diffs across same-seed runs.
func (c Counters) String() string {
	return fmt.Sprintf(
		"cteCorrupt=%d cteStale=%d payload=%d quarantines=%d spikes=%d busy=%d retries=%d timeouts=%d",
		c.CTECorrupt, c.CTEStale, c.Payload, c.Quarantines, c.Spikes, c.Busy, c.Retries, c.Timeouts)
}

// Injector draws the fault schedule for one simulation run. It is not
// safe for concurrent use (runs are single-threaded); a nil *Injector
// rejects every fault and keeps every site on its no-fault path.
type Injector struct {
	plan Plan
	rng  *rand.Rand
	c    Counters
}

// Observe registers the injector's counters under "fault." with the run
// view, which samples them into the registry — and, with the timeline
// armed, into the simulated-time window they fired in. sim.NewRunnerFull
// calls it with the run's view. Nil-safe on both receiver and view.
func (in *Injector) Observe(v *obs.RunView) {
	if in == nil {
		return
	}
	v.Count("fault.cte.corrupt", &in.c.CTECorrupt)
	v.Count("fault.cte.stale", &in.c.CTEStale)
	v.Count("fault.payload.flips", &in.c.Payload)
	v.Count("fault.payload.quarantines", &in.c.Quarantines)
	v.Count("fault.dram.spikes", &in.c.Spikes)
	v.Count("fault.dram.busy", &in.c.Busy)
	v.Count("fault.dram.retries", &in.c.Retries)
	v.Count("fault.dram.timeouts", &in.c.Timeouts)
}

// NewInjector builds an injector for one run; salt is the run's identity
// (RunSalt) so distinct runs under one plan draw independent schedules.
// Returns nil when the plan injects nothing, keeping disabled runs on the
// nil fast path.
func NewInjector(p Plan, salt uint64) *Injector {
	if !p.Enabled() {
		return nil
	}
	seed := p.Seed ^ int64(salt*0x9e3779b97f4a7c15) //tmcclint:allow magic-literal (splitmix64 golden-ratio mixing constant)
	return &Injector{plan: p, rng: rand.New(rand.NewSource(seed))}
}

// RunSalt hashes a run's identifying strings/values into an injector
// salt (FNV-1a), so the fault schedule is a pure function of the plan and
// the run identity — never of scheduling order.
func RunSalt(parts ...string) uint64 {
	sort.Strings(parts)
	h := uint64(0xcbf29ce484222325) //tmcclint:allow magic-literal (FNV-1a offset basis)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 0x100000001b3 //tmcclint:allow magic-literal (FNV-1a prime)
		}
		h ^= 0xff
		h *= 0x100000001b3 //tmcclint:allow magic-literal (FNV-1a prime)
	}
	return h
}

// Plan returns the armed plan (zero Plan on a nil injector).
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// Counters snapshots the injector's tallies; zero on nil.
func (in *Injector) Counters() Counters {
	if in == nil {
		return Counters{}
	}
	return in.c
}

// PerturbCTE asks whether this embedded-CTE use should be sabotaged.
// It returns the perturbed truncated CTE (bits wide) and true when a
// corruption or staleness fault fired. Corruption flips one random bit;
// staleness rewinds the frame by one, modeling an embedded copy that
// missed the page's last migration. The perturbed value always differs
// from tr, so a speculating MC is guaranteed to mis-verify against it.
func (in *Injector) PerturbCTE(tr uint32, bits int) (uint32, bool) {
	if in == nil || bits <= 0 {
		return tr, false
	}
	mask := uint32(uint64(1)<<uint(bits) - 1)
	if in.plan.CTECorrupt > 0 && in.rng.Float64() < in.plan.CTECorrupt {
		in.c.CTECorrupt++
		return tr ^ (1 << uint(in.rng.Intn(bits))), true
	}
	if in.plan.CTEStale > 0 && in.rng.Float64() < in.plan.CTEStale {
		in.c.CTEStale++
		return (tr - 1) & mask, true
	}
	return tr, false
}

// Payload reports whether this demand ML2 read should see a corrupted
// compressed payload (the MC models it by invalidating the page's stored
// checksum).
func (in *Injector) Payload() bool {
	if in == nil || in.plan.Payload <= 0 {
		return false
	}
	if in.rng.Float64() < in.plan.Payload {
		in.c.Payload++
		return true
	}
	return false
}

// NoteQuarantine records that the MC quarantined a page after a payload
// checksum miss.
func (in *Injector) NoteQuarantine() {
	if in != nil {
		in.c.Quarantines++
	}
}

// Spike returns the extra latency to add to a DRAM operation, when a
// spike fault fires.
func (in *Injector) Spike() (config.Time, bool) {
	if in == nil || in.plan.Spike <= 0 {
		return 0, false
	}
	if in.rng.Float64() < in.plan.Spike {
		in.c.Spikes++
		return in.plan.SpikeLatency, true
	}
	return 0, false
}

// Busy reports whether channel ch transiently rejects the operation; the
// caller is expected to back off and retry. Each call is one independent
// draw, so a retry may find the channel clear.
func (in *Injector) Busy(ch int) bool {
	if in == nil || in.plan.Busy <= 0 {
		return false
	}
	if in.plan.BusyChannel >= 0 && ch != in.plan.BusyChannel {
		return false
	}
	if in.rng.Float64() < in.plan.Busy {
		in.c.Busy++
		return true
	}
	return false
}

// BusyBackoff returns the base backoff the MC waits before a retry.
func (in *Injector) BusyBackoff() config.Time { return in.plan.BusyBackoff }

// BusyRetries returns the MC's retry budget per operation.
func (in *Injector) BusyRetries() int { return in.plan.BusyRetries }

// NoteRetry records one backoff retry.
func (in *Injector) NoteRetry() {
	if in != nil {
		in.c.Retries++
	}
}

// NoteTimeout records an exhausted retry budget.
func (in *Injector) NoteTimeout() {
	if in != nil {
		in.c.Timeouts++
	}
}
