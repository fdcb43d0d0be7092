// Package handle holds the process-handle configuration shared by all
// auditable objects: every reader/writer/auditor handle can carry a probe for
// instrumentation and a process id for event attribution.
package handle

import "auditreg/internal/probe"

// Config is the resolved handle configuration.
type Config struct {
	// PID is the process id reported in probe events.
	PID int
	// Probe receives instrumentation events; nil disables instrumentation.
	Probe probe.Probe
}

// Option configures a process handle.
type Option func(*Config)

// WithProbe attaches an instrumentation probe to the handle. The probe is
// invoked synchronously around every primitive the handle applies to shared
// base objects.
func WithProbe(p probe.Probe) Option {
	return func(c *Config) { c.Probe = p }
}

// WithPID overrides the process id reported in probe events.
func WithPID(pid int) Option {
	return func(c *Config) { c.PID = pid }
}

// Apply resolves options over the given default process id.
func Apply(defaultPID int, opts []Option) Config {
	if len(opts) == 0 {
		return Config{PID: defaultPID} // cfg below escapes into the options' calls: a heap object each
	}
	cfg := Config{PID: defaultPID}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}
