// Package ras is the self-healing reliability policy layer sitting on top
// of the fault-detection machinery: the memory controller detects (CTE
// verify mismatches, payload checksum failures, DRAM timeouts) and ras
// decides what to do about the pattern of failures —
//
//   - page retirement: a per-page strike scoreboard; a page that keeps
//     faulting has its DRAM frame permanently withdrawn from circulation
//     (the MC pins the page uncompressed on the frame and the freelist
//     never re-issues it);
//   - degraded mode: a fault-rate circuit breaker over fixed windows of
//     simulated time (the timeline's window arithmetic); when the fault
//     rate in a window crosses the threshold the MC flips from compressed
//     operation to store-uncompressed-writethrough, re-arming only after a
//     run of clean windows (hysteresis);
//   - CTE/payload scrubbing: a bounded background patrol over the page
//     table each window, verifying compressed payload checksums before a
//     demand access trips over them.
//
// The state is pure policy: it holds no instruments and performs no DRAM
// work itself — the MC consults it, carries out the decisions, and stamps
// the observability sinks. Like the fault injector and the observer, RAS
// state lives outside the experiment engine's memoization key: one
// process runs one policy, and a nil *State answers every query inertly
// so the RAS-off hot path costs one predictable branch.
//
// Everything is deterministic: the scoreboard and breaker are pure
// functions of the fault sequence, and the patrol cursor's start offset
// derives from the run seed — byte-identical results at any worker count
// fall out of the same commutative-aggregation argument the injector
// uses.
package ras

import (
	"tmcc/internal/config"
	"tmcc/internal/obs/timeline"
)

// Default policy knobs; see Config for what each one means.
const (
	DefaultRetireStrikes       = 3
	DefaultBreakerFaults       = 8
	DefaultBreakerCleanWindows = 2
	DefaultScrubPages          = 64
	// DefaultWindow is sized to the simulator's scale: a measured run
	// covers a few hundred microseconds of simulated time, so 2µs windows
	// give the breaker and patrol on the order of a hundred policy edges
	// per run (a 1ms window — the timeline's reporting default — would
	// never elapse).
	DefaultWindow         = 2 * config.Microsecond
	DefaultScrubPagePS    = 25 * config.Nanosecond
	DefaultWritethroughPS = 50 * config.Nanosecond
)

// Config selects the reliability policies. The zero value disables the
// layer entirely (New returns nil); Default returns the standard
// everything-on policy.
type Config struct {
	// RetireStrikes is the scoreboard threshold K: a page's K-th strike
	// retires its frame. 0 disables retirement.
	RetireStrikes int
	// BreakerFaults opens the circuit breaker when at least this many
	// faults land inside one window. 0 disables the breaker.
	BreakerFaults int
	// BreakerCleanWindows is the hysteresis: consecutive fault-free
	// windows required before an open breaker re-arms.
	BreakerCleanWindows int
	// WindowPS is the breaker/scrub window width in simulated time;
	// <= 0 selects DefaultWindow.
	WindowPS config.Time
	// ScrubPages bounds the background patrol: pages examined per window.
	// 0 disables scrubbing.
	ScrubPages int
	// ScrubPagePS is the cycle cost modeled per scrubbed compressed page
	// (patrol read + decompress + verify), banked and charged to the
	// degraded attr component on the next demand access.
	ScrubPagePS config.Time
	// WritethroughPS is the store penalty while the breaker is open: the
	// MC bypasses the compressed tier and writes through, paying this per
	// posted write.
	WritethroughPS config.Time
}

// Default returns the standard policy with every mechanism armed.
func Default() Config {
	return Config{
		RetireStrikes:       DefaultRetireStrikes,
		BreakerFaults:       DefaultBreakerFaults,
		BreakerCleanWindows: DefaultBreakerCleanWindows,
		WindowPS:            DefaultWindow,
		ScrubPages:          DefaultScrubPages,
		ScrubPagePS:         DefaultScrubPagePS,
		WritethroughPS:      DefaultWritethroughPS,
	}
}

// Enabled reports whether any policy is armed.
func (c Config) Enabled() bool {
	return c.RetireStrikes > 0 || c.BreakerFaults > 0 || c.ScrubPages > 0
}

// TickResult reports what one window edge decided: how many pages the
// patrol may scrub now, and whether the breaker transitioned.
type TickResult struct {
	ScrubPages int
	Opened     bool
	Closed     bool
}

// State is one controller's policy state. A nil *State is inert.
type State struct {
	cfg     Config
	strikes []uint8
	retired uint64

	degraded  bool
	edge      timeline.Edge
	winFaults int
	cleanWins int

	cursor int
}

// New builds the per-run policy state over a page table of the given
// size. seed offsets the patrol cursor so distinct runs patrol distinct
// phases; nil when the config arms nothing or there are no pages.
func New(cfg Config, pages int, seed int64) *State {
	if !cfg.Enabled() || pages <= 0 {
		return nil
	}
	if cfg.WindowPS <= 0 {
		cfg.WindowPS = DefaultWindow
	}
	if cfg.BreakerCleanWindows <= 0 {
		cfg.BreakerCleanWindows = DefaultBreakerCleanWindows
	}
	off := seed % int64(pages)
	if off < 0 {
		off += int64(pages)
	}
	s := &State{cfg: cfg, edge: timeline.NewEdge(cfg.WindowPS), cursor: int(off)}
	if cfg.RetireStrikes > 0 {
		s.strikes = make([]uint8, pages)
	}
	return s
}

// Tick rolls the policy clock to the window holding now. On a window
// edge it closes out the previous window — evaluating the breaker
// against the faults it accumulated — and grants the patrol its page
// quota. Non-monotonic times (nested background accesses replay earlier
// timestamps) never re-cross an edge. Nil-safe (zero result).
func (s *State) Tick(now config.Time) TickResult {
	if s == nil {
		return TickResult{}
	}
	if !s.edge.Cross(now) {
		return TickResult{}
	}
	var res TickResult
	switch {
	case s.degraded:
		if s.winFaults == 0 {
			s.cleanWins++
			if s.cleanWins >= s.cfg.BreakerCleanWindows {
				s.degraded = false
				s.cleanWins = 0
				res.Closed = true
			}
		} else {
			s.cleanWins = 0
		}
	case s.cfg.BreakerFaults > 0 && s.winFaults >= s.cfg.BreakerFaults:
		s.degraded = true
		s.cleanWins = 0
		res.Opened = true
	}
	s.winFaults = 0
	res.ScrubPages = s.cfg.ScrubPages
	return res
}

// Degraded reports whether the breaker is open (store-uncompressed-
// writethrough mode). Nil-safe (false).
func (s *State) Degraded() bool { return s != nil && s.degraded }

// Fault feeds one detection into the breaker's current window without a
// page to blame (DRAM timeouts). Nil-safe.
func (s *State) Fault() {
	if s == nil {
		return
	}
	s.winFaults++
}

// Strike records one fault against ppn: it feeds the breaker window and
// advances the page's scoreboard (saturating). Nil-safe.
func (s *State) Strike(ppn uint64) {
	if s == nil {
		return
	}
	s.winFaults++
	if s.strikes == nil || ppn >= uint64(len(s.strikes)) {
		return
	}
	if n := s.strikes[ppn]; n < ^uint8(0) {
		s.strikes[ppn] = n + 1
	}
}

// ShouldRetire reports whether ppn's scoreboard has crossed the
// retirement threshold. The MC guards the actual retirement (a page can
// only be retired once, onto an uncompressed frame) and confirms it with
// MarkRetired. Nil-safe (false).
func (s *State) ShouldRetire(ppn uint64) bool {
	if s == nil || s.strikes == nil || ppn >= uint64(len(s.strikes)) {
		return false
	}
	return int(s.strikes[ppn]) >= s.cfg.RetireStrikes
}

// MarkRetired confirms one frame retirement (accounting only). Nil-safe.
func (s *State) MarkRetired() {
	if s == nil {
		return
	}
	s.retired++
}

// Retired reports how many frames have been retired. Nil-safe (0).
func (s *State) Retired() uint64 {
	if s == nil {
		return 0
	}
	return s.retired
}

// NextScrub advances the patrol cursor over a table of the given size
// and returns the page to examine. Nil-safe (0).
func (s *State) NextScrub(pages int) uint64 {
	if s == nil || pages <= 0 {
		return 0
	}
	if s.cursor >= pages {
		s.cursor = 0
	}
	p := s.cursor
	s.cursor++
	return uint64(p)
}

// ScrubPagePS reports the per-page patrol cost to bank. Nil-safe (0).
func (s *State) ScrubPagePS() config.Time {
	if s == nil {
		return 0
	}
	return s.cfg.ScrubPagePS
}

// WritethroughPS reports the degraded-mode store penalty. Nil-safe (0).
func (s *State) WritethroughPS() config.Time {
	if s == nil {
		return 0
	}
	return s.cfg.WritethroughPS
}
