package dampen

import "peering/internal/telemetry"

// Metrics is the damper's instrument set. Attach one to a Damper with
// Instrument; a damper without metrics (the zero state) records
// nothing and pays only a nil check per event.
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
	// one of them while the damper's mutex is held.
	flaps, withdraws *telemetry.Counter
}

// Instrument registers the dampening metrics on r and attaches them to
// d, including a scrape-time gauge of tracked (prefix, source) records.
// Call at most once per damper, before concurrent use begins.
func (d *Damper) Instrument(r *telemetry.Registry) *Metrics {
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
		func() float64 { return float64(d.Tracked()) })
	d.metrics = m
	return m
}

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
