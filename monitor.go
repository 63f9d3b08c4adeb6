package anomalia

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"anomalia/internal/detect"
	"anomalia/internal/dirnet"
	"anomalia/internal/dist"
	"anomalia/internal/health"
	"anomalia/internal/motion"
	"anomalia/internal/space"
)

// Monitor couples per-device error detection with window-by-window
// characterization: feed it one QoS snapshot per discrete time and it
// returns, whenever some devices behave abnormally, the massive /
// isolated / unresolved verdicts for exactly those devices.
//
// Monitor is not safe for concurrent use, with one deliberate
// carve-out: the stats snapshots — Time, DeviceHealth, HealthStats,
// DirStats — and a metrics scrape (WithMetrics) may run on another
// goroutine concurrently with Observe/ObservePartial. They read
// atomics or take the stats mutex, so a scraper never tears a counter
// and never blocks the fast ingest path.
type Monitor struct {
	devices  int
	services int
	cfg      config
	dets     []*detect.Device
	// walker shards row grading and the per-device detector walk
	// across WithIngestWorkers workers (default GOMAXPROCS); the merged
	// abnormal set is byte-identical to a serial walk. cleanBuf is the
	// recycled grading mask both ingest policies fill.
	walker   *detect.Walker
	cleanBuf []bool
	prev     *space.State
	time     atomic.Int64
	// spare recycles the state displaced by the previous Observe as the
	// next snapshot buffer (a double buffer: Observe fully overwrites
	// every row before reading it), and abnBuf recycles the abnormal-id
	// slice — characterization clones the ids it keeps, so both are free
	// for reuse once Observe returns.
	spare  *space.State
	abnBuf []int
	// dir is the persistent directory service of the distributed path:
	// the monitor owns consecutive windows, so it hosts the cross-window
	// index — built on the first abnormal window and advanced (delta
	// patch, not rebuild) on every later one. Buffer recycling above is
	// safe against it: Advance never reads the previous window's
	// positions, only its retained cell membership.
	dir *dist.Directory
	// dirClient replaces the in-process directory when WithDirectory is
	// configured: abnormal windows are decided over the wire by a shard
	// fleet, and a window the fleet cannot serve degrades to centralized
	// characterization (verdicts unchanged). dirWindows / dirNetworked /
	// dirDegraded are the lifetime window ledger behind DirStats —
	// atomics, because DirStats may race a scraper against the
	// observing goroutine.
	dirClient    *dirnet.Client
	dirWindows   atomic.Int64
	dirNetworked atomic.Int64
	dirDegraded  atomic.Int64
	// health is the per-device state machine of the degraded ingest path
	// (ObservePartial), created on the first partial tick so Observe-only
	// monitors pay nothing for it; rowsBuf is its recycled effective-row
	// table.
	// The pointer is atomic so a concurrent stats snapshot sees either
	// no tracker or a fully built one; statsMu serializes the tracker's
	// mutations (the slow-path dispatch loop, Reset) against
	// HealthStats/DeviceHealth readers. The all-clean fast path stays
	// outside the mutex: ConsumeAll touches only per-device consumption
	// state no stats reader looks at, which is what keeps the quiet
	// partial tick at 1 alloc and lock-free.
	health  atomic.Pointer[health.Tracker]
	statsMu sync.Mutex
	rowsBuf [][]float64
	// mx is the per-window metrics feed (WithMetrics); nil when the
	// monitor is not instrumented — every record site is gated on that,
	// so the uninstrumented hot path pays one predictable branch.
	mx *monitorMetrics
}

// NewMonitor builds a monitor for a fleet of devices, each consuming the
// given number of services. Options configure the characterization
// parameters and the per-service detector factory (default: threshold
// detector with delta 0.05).
func NewMonitor(devices, services int, opts ...Option) (*Monitor, error) {
	if devices < 2 {
		return nil, fmt.Errorf("%d devices: %w", devices, ErrInvalidInput)
	}
	if services < space.MinDim || services > space.MaxDim {
		return nil, fmt.Errorf("%d services: %w", services, ErrInvalidInput)
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := motion.ValidateRadius(cfg.radius); err != nil {
		return nil, err
	}
	if cfg.tau < 1 {
		return nil, fmt.Errorf("tau = %d: %w", cfg.tau, ErrInvalidInput)
	}
	if err := cfg.health.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	factory := cfg.factory
	if factory == nil {
		factory = func(int, int) (Detector, error) {
			return NewThresholdDetector(0.05)
		}
	}
	m := &Monitor{
		devices:  devices,
		services: services,
		cfg:      cfg,
		dets:     make([]*detect.Device, devices),
		walker:   detect.NewWalker(cfg.ingestWorkers),
	}
	if cfg.metrics != nil {
		m.mx = newMonitorMetrics(cfg.metrics)
	}
	if cfg.directory != nil {
		dc := cfg.directory
		client, err := dirnet.NewClient(dirnet.Config{
			Addrs:           dc.Addrs,
			Dial:            dc.Dial,
			DialTimeout:     dc.DialTimeout,
			RequestTimeout:  dc.RequestTimeout,
			MaxRetries:      dc.MaxRetries,
			BackoffBase:     dc.BackoffBase,
			BackoffCap:      dc.BackoffCap,
			BreakerFails:    dc.BreakerFails,
			BreakerCooldown: dc.BreakerCooldown,
			Seed:            dc.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidInput, err)
		}
		m.dirClient = client
	}
	for dev := 0; dev < devices; dev++ {
		dev := dev
		composite, err := detect.NewDevice(services, func(svc int) (detect.Detector, error) {
			d, err := factory(dev, svc)
			if err != nil {
				return nil, err
			}
			if d == nil {
				return nil, fmt.Errorf("device %d service %d: nil detector: %w", dev, svc, ErrInvalidInput)
			}
			return d, nil
		})
		if err != nil {
			return nil, fmt.Errorf("building detectors for device %d: %w", dev, err)
		}
		m.dets[dev] = composite
	}
	return m, nil
}

// Time returns the number of snapshots observed so far.
func (m *Monitor) Time() int { return int(m.time.Load()) }

// Observe consumes the snapshot of one discrete time: one row per device,
// one QoS value in [0,1] per service. It returns nil when no device
// behaved abnormally over the window (including the first snapshot, which
// only trains the detectors); otherwise it returns the characterization
// of the abnormal set.
//
// Observe is the strict ingest policy: every row is graded — present,
// full width, finite — before any detector sees the snapshot. Grading
// and the detector walk are sharded across WithIngestWorkers workers;
// the abnormal set is identical to a serial walk whatever the count.
//
// Error behavior: a rejected snapshot — wrong row count or width, or a
// non-finite QoS value (NaN would pass an interval test and poison
// detector state, so it is rejected by name), named for the lowest
// offending device — leaves the monitor exactly as it was: no detector
// consumed a sample, the clock did not advance, and the recycled
// buffers are intact. An accepted snapshot runs the tick tail shared
// with ObservePartial, where an error from the window's
// characterization reports a consumed observation: the detectors have
// already folded the snapshot in, so the clock and the previous-state
// buffer advance with them, the displaced state is recycled, and the
// next tick proceeds cleanly.
func (m *Monitor) Observe(samples [][]float64) (*Outcome, error) {
	start, nClean, err := m.grade(samples)
	if err != nil {
		return nil, err
	}
	if nClean != m.devices {
		dev := slices.Index(m.cleanBuf, false)
		return nil, fmt.Errorf("%w: %w", ErrInvalidInput, rowError(dev, samples[dev], m.services))
	}
	return m.tick(samples, start, m.now())
}

// ObservePartial consumes one possibly-degraded snapshot: one row per
// device like Observe, but a row may be nil (no report arrived this
// tick) or malformed — wrong width, or carrying NaN/±Inf — and instead
// of rejecting the whole tick, the monitor folds every device's report
// quality into its health state machine (internal/health, configured
// by WithHealthPolicy) and characterizes the live subpopulation:
//
//   - a live device's clean report is consumed exactly as Observe
//     would consume it;
//   - a device missing or malformed for at most HoldTicks consecutive
//     ticks is stale: its last-known value is held, so its detectors
//     and the window's population see it at its last observed
//     position, and one clean report returns it to live;
//   - past HoldTicks the device is quarantined: excluded from the
//     window's population — no detector update, never abnormal, its
//     state slot parked at its last position (the origin if it never
//     reported) — until ReadmitTicks consecutive clean reports
//     re-admit it. The re-admitting report is consumed; earlier
//     reports in the run are dropped, so one lucky packet cannot
//     re-admit a flapping device.
//
// Malformed and missing are deliberately indistinguishable to the
// state machine: neither carries a usable measurement, and collapsing
// them makes a degraded stream reproducible against an oracle fed only
// the delivered clean subset. A fully clean snapshot over an all-live
// fleet takes a fast path equivalent to Observe — no per-device health
// bookkeeping, same recycled buffers, same verdicts.
//
// Membership churn flows through: quarantined devices leave the
// abnormal set (and so the distributed directory's index) and
// re-admitted devices rejoin it on the window their detectors next
// fire. DeviceHealth and HealthStats expose the current split.
//
// Error behavior: a wrong row count is rejected with the monitor
// untouched, as on Observe; there is no per-value rejection — malformed
// rows are the input this path exists to absorb. The tail shared with
// Observe reports a characterization error as a consumed observation.
// A detector-walk error in that tail leaves the tick uncommitted —
// clock, previous state and recycled buffers intact — but not
// unconsumed: detectors in finished shards have folded the tick in and
// every device's health state has advanced, so re-feeding the same
// snapshot charges the health machine twice while the clock advances
// once; treat the tick as lost instead. Graded rows always match their
// device's width, so no Detector can make the walk fail; the path is
// defensive.
func (m *Monitor) ObservePartial(samples [][]float64) (*Outcome, error) {
	start, nClean, err := m.grade(samples)
	if err != nil {
		return nil, err
	}
	tracker := m.health.Load()
	if tracker == nil {
		t, err := health.New(m.devices, m.cfg.health)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrInvalidInput, err)
		}
		m.health.Store(t)
		tracker = t
	}

	// Fast path: a fully clean tick over an all-live fleet is exactly an
	// Observe tick — every disposition is Consume — so the rows feed
	// straight through with no per-device health work at all. The tick
	// still counts as a consumed report for every device: ConsumeAll
	// gives the whole fleet a last-known value, so a device's first
	// fault after an all-clean history is held, not skipped.
	rows := samples
	if nClean == m.devices && tracker.AllLive() {
		tracker.ConsumeAll()
	} else {
		if m.rowsBuf == nil {
			m.rowsBuf = make([][]float64, m.devices)
		}
		rows = m.rowsBuf
		// The dispatch loop mutates the tracker's states, streaks and
		// lifetime counters — the fields a concurrent HealthStats or
		// DeviceHealth snapshot reads — so it runs under the stats
		// mutex. One lock per tick, not per device; the all-clean fast
		// path above never takes it.
		m.statsMu.Lock()
		for dev := range rows {
			switch tracker.Report(dev, m.cleanBuf[dev]) {
			case health.Consume:
				rows[dev] = samples[dev]
			case health.Hold:
				// Hold implies a previously consumed report, so m.prev
				// normally carries the device's last-known position. The
				// one exception: a walk error on the consuming tick
				// leaves the report folded into health state with the
				// tick uncommitted (m.prev still nil) — park the device
				// instead of dereferencing a state that never
				// materialized.
				if m.prev == nil {
					rows[dev] = nil
				} else {
					rows[dev] = m.prev.At(dev)
				}
			default: // health.Skip
				rows[dev] = nil
			}
		}
		m.statsMu.Unlock()
	}
	return m.tick(rows, start, m.now())
}

// grade is the front both ingest policies share: it rejects a wrong
// row count and grades every row into cleanBuf without touching a
// detector, returning the tick's start time and the clean-row count.
func (m *Monitor) grade(samples [][]float64) (time.Time, int, error) {
	if len(samples) != m.devices {
		return time.Time{}, 0, fmt.Errorf("snapshot has %d rows, want %d: %w", len(samples), m.devices, ErrInvalidInput)
	}
	start := m.now()
	if m.cleanBuf == nil {
		m.cleanBuf = make([]bool, m.devices)
	}
	return start, m.walker.Classify(m.dets, samples, m.cleanBuf), nil
}

// rowError names what makes one graded-unclean row unusable, for the
// strict policy's rejection.
func rowError(dev int, row []float64, width int) error {
	if len(row) != width {
		return fmt.Errorf("device %d has %d coords, want %d: %w", dev, len(row), width, detect.ErrSample)
	}
	svc := slices.IndexFunc(row, func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) })
	return fmt.Errorf("device %d service %d: non-finite QoS %v: %w", dev, svc, row[svc], detect.ErrSample)
}

// tick is the tail both ingest policies share: rows[dev] is the sample
// device dev consumes this tick, or nil when it sits out the window.
// One sharded pass fills the spare state and runs the detectors; the
// tick then commits and, given a predecessor and an abnormal set,
// characterizes the window. start and ingested time the metrics feed.
func (m *Monitor) tick(rows [][]float64, start, ingested time.Time) (*Outcome, error) {
	cur := m.spare
	m.spare = nil
	if cur == nil {
		var err error
		cur, err = space.NewState(m.devices, m.services)
		if err != nil {
			return nil, err
		}
	}
	prev := m.prev
	abnormal, err := m.walker.WalkSkip(m.dets, rows, func(dev int, row []float64) {
		dst := cur.At(dev)
		if row == nil {
			// Excluded from the window: park the device at its last
			// position (origin before any) so the trajectory a later
			// re-admission window reads is deterministic, never recycled
			// buffer garbage. Parked devices are never abnormal, so
			// characterization never reads the parked position itself.
			if prev != nil {
				copy(dst, prev.At(dev))
			} else {
				clear(dst)
			}
			return
		}
		copy(dst, row)
		dst.Clamp()
	}, m.abnBuf[:0])
	m.abnBuf = abnormal
	if err != nil {
		// Keep the double buffer intact but roll nothing back (see
		// ObservePartial): undoing a partial walk would leave health
		// states inconsistent with the detectors that did update.
		m.spare = cur
		return nil, fmt.Errorf("%w: %w", ErrInvalidInput, err)
	}
	walked := m.now()
	m.prev = cur
	m.time.Add(1)
	// The displaced snapshot is dead from here on whatever happens next
	// — outcomes carry device ids, never state references, and the
	// characterization below only reads it — so recycle it now; that
	// keeps the double buffer intact on every error path too.
	m.spare = prev
	if prev == nil || len(abnormal) == 0 {
		if m.mx != nil {
			m.tickDone(start, ingested, walked, nil, false)
		}
		return nil, nil
	}
	pair, err := motion.NewPair(prev, cur)
	if err != nil {
		return nil, err
	}
	out, err := m.characterizeWindow(pair, abnormal)
	if m.mx != nil {
		m.tickDone(start, ingested, walked, abnormal, true)
	}
	return out, err
}

// now reads the clock for the metrics feed; an uninstrumented monitor
// skips the read.
func (m *Monitor) now() time.Time {
	if m.mx == nil {
		return time.Time{}
	}
	return time.Now()
}

// DeviceHealth returns device dev's current health state. Devices are
// live until a partial tick impairs them; a monitor fed only through
// Observe is always all-live.
func (m *Monitor) DeviceHealth(dev int) (HealthState, error) {
	if dev < 0 || dev >= m.devices {
		return HealthLive, fmt.Errorf("device %d of %d: %w", dev, m.devices, ErrInvalidInput)
	}
	t := m.health.Load()
	if t == nil {
		return HealthLive, nil
	}
	m.statsMu.Lock()
	st := t.State(dev)
	m.statsMu.Unlock()
	switch st {
	case health.Stale:
		return HealthStale, nil
	case health.Quarantined:
		return HealthQuarantined, nil
	default:
		return HealthLive, nil
	}
}

// HealthStats returns the current population split and the lifetime
// degraded-ingestion counters.
func (m *Monitor) HealthStats() HealthStats {
	t := m.health.Load()
	if t == nil {
		return HealthStats{Live: m.devices}
	}
	m.statsMu.Lock()
	live, stale, quar := t.Counts()
	st := t.Stats()
	m.statsMu.Unlock()
	return HealthStats{
		Live:           live,
		Stale:          stale,
		Quarantined:    quar,
		Quarantines:    st.Quarantines,
		Readmissions:   st.Readmissions,
		HeldTicks:      st.HeldTicks,
		DroppedReports: st.DroppedReports,
		FaultyTicks:    st.FaultyTicks,
	}
}

// characterizeWindow runs one abnormal window through the configured
// deployment model. The centralized path is stateless; the distributed
// path persists the directory service across windows — the first
// abnormal window builds it, every later one advances it with the
// window-to-window delta (the monitor cannot know which devices crossed
// cells, so the advance rechecks every indexed id — still sort-free and
// cheaper than the rebuild it replaces; deployments with a per-device
// update stream feed Advance their moved list directly). With
// WithDirectory the directory lives behind the wire instead: the client
// syncs the shard fleet and merges its decision slices, and any failure
// past the deadline/retry/breaker budget degrades this one window to
// centralized characterization — same verdicts, one DirStats
// degradation — so shard unavailability never surfaces as an Observe
// error.
func (m *Monitor) characterizeWindow(pair *motion.Pair, abnormal []int) (*Outcome, error) {
	if !m.cfg.distributed {
		return characterizePair(pair, abnormal, m.cfg)
	}
	// NewMonitor already validated r and τ.
	coreCfg := m.cfg.coreConfig()
	if m.dirClient != nil {
		m.dirWindows.Add(1)
		decisions, total, err := m.dirClient.DecideWindow(pair, abnormal, coreCfg)
		if err == nil {
			m.dirNetworked.Add(1)
			return outcomeFromDecisions(decisions, total), nil
		}
		// Whatever failed — unreachable shards, a mid-window crash, a
		// deterministic server rejection — the centralized path is the
		// oracle the networked one is pinned to, so fall back for this
		// window; the client re-syncs shards on the next abnormal window.
		m.dirDegraded.Add(1)
		return characterizePair(pair, abnormal, m.cfg)
	}
	if m.dir == nil {
		dir, err := dist.NewDirectory(pair, abnormal, m.cfg.radius)
		if err != nil {
			return nil, err
		}
		m.dir = dir
		if m.mx != nil {
			m.mx.dirBuilds.Inc()
		}
	} else {
		st, err := m.dir.Advance(pair, abnormal, nil)
		if err != nil {
			// A failed advance never mutates the retained window, but the
			// monitor can no longer assume the directory tracks this window's
			// abnormal set — drop it and let the next abnormal window rebuild
			// from scratch rather than serve stale membership.
			m.dir = nil
			return nil, err
		}
		if m.mx != nil {
			if st.Rebuilt {
				m.mx.dirAdvanceRebuilt.Inc()
			} else {
				m.mx.dirAdvancePatched.Inc()
			}
		}
	}
	return decideDistributed(m.dir, coreCfg)
}

// DirStats returns the networked directory's window ledger and
// lifetime wire counters. Monitors without WithDirectory return the
// zero value.
func (m *Monitor) DirStats() DirStats {
	if m.dirClient == nil {
		return DirStats{}
	}
	st := m.dirClient.Stats()
	return DirStats{
		Windows:       m.dirWindows.Load(),
		Networked:     m.dirNetworked.Load(),
		Degraded:      m.dirDegraded.Load(),
		Retries:       st.Retries,
		Failures:      st.Failures,
		BreakerOpens:  st.BreakerOpens,
		Rejoins:       st.Rejoins,
		BytesSent:     st.BytesSent,
		BytesReceived: st.BytesReceived,
		RoundTrips:    st.RoundTrips,
	}
}

// Reset clears the detectors, the snapshot history, the persistent
// directory, the per-device health state and the churn baseline of the
// metrics feed, keeping the
// configuration. A networked directory client drops its connections
// and forgets shard sync and breaker state, but the lifetime DirStats
// counters survive — the wire ledger spans resets the way a process's
// traffic counters span reconnects.
func (m *Monitor) Reset() {
	for _, d := range m.dets {
		d.Reset()
	}
	m.prev = nil
	m.spare = nil
	m.time.Store(0)
	m.dir = nil
	if m.dirClient != nil {
		m.dirClient.Reset()
	}
	if m.mx != nil {
		// The churn gauge diffs against the previous abnormal set; the
		// first abnormal window after a reset scores against the empty
		// set, like the first one ever.
		m.mx.prevAbn = m.mx.prevAbn[:0]
	}
	if t := m.health.Load(); t != nil {
		m.statsMu.Lock()
		t.Reset()
		m.statsMu.Unlock()
	}
}
