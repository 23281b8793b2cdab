package dampen

import "peering/internal/telemetry"

// Metrics is the dampers' instrument set, registered once by NewMetrics
// and shared by every damper it is attached to with Instrument; a
// damper without metrics (the zero state) records nothing and pays only
// a nil check per event.
type Metrics struct {
	// Penalties counts penalty applications by kind ("flap" for
	// re-announcements, "withdraw" for explicit withdrawals).
	Penalties *telemetry.CounterVec
	// Suppressions counts routes crossing the suppress threshold;
	// Reuses counts suppressed routes decaying back below the reuse
	// threshold. The difference is how many routes are suppressed now.
	Suppressions *telemetry.Counter
	Reuses       *telemetry.Counter

	// The two children of Penalties, resolved once: every flap counts
	// one of them.
	flaps, withdraws *telemetry.Counter
}

// NewMetrics registers the dampening metrics on r, including a
// scrape-time gauge that reads tracked: the records held by every damper
// the metrics are attached to.
func NewMetrics(r *telemetry.Registry, tracked func() int) *Metrics {
	m := &Metrics{
		Penalties: r.CounterVec("peering_dampen_penalties_total",
			"Flap-dampening penalty applications, by kind.", "kind"),
		Suppressions: r.Counter("peering_dampen_suppressions_total",
			"Routes that crossed the suppress threshold."),
		Reuses: r.Counter("peering_dampen_reuses_total",
			"Suppressed routes that decayed below the reuse threshold."),
	}
	m.flaps, m.withdraws = m.Penalties.With("flap"), m.Penalties.With("withdraw")
	r.GaugeFunc("peering_dampen_tracked_keys",
		"Dampening records currently tracked (prefix, source, upstream keys); decayed records are swept as the table grows.",
		func() float64 { return float64(tracked()) })
	return m
}

// Instrument attaches m to d, before d is first used.
func (d *Damper) Instrument(m *Metrics) { d.metrics = m }

func (m *Metrics) penalty(withdraw bool) {
	switch {
	case m == nil:
	case withdraw:
		m.withdraws.Inc()
	default:
		m.flaps.Inc()
	}
}

func (m *Metrics) suppress() {
	if m != nil {
		m.Suppressions.Inc()
	}
}

func (m *Metrics) reuse() {
	if m != nil {
		m.Reuses.Inc()
	}
}
