package healthcheck

// SetAfterSweep installs fn to run after every sweep of every monitor, the
// hook the mark-completeness tests observe the cluster's monitor through.
// The returned func removes it.
func SetAfterSweep(fn func(*Monitor)) (restore func()) {
	afterSweep = fn
	return func() { afterSweep = nil }
}

// UnmarkedViolations lists every Up node that is not marked for inspection
// yet violates policy: a node the sweeps skip although inspecting it would
// pull a device.
func (m *Monitor) UnmarkedViolations() []string {
	var out []string
	for i, n := range m.nodes {
		if !n.Up() || m.dirty[i] {
			continue
		}
		if _, reason, bad := m.inspect(n); bad {
			out = append(out, n.Name()+": "+reason)
		}
	}
	return out
}
