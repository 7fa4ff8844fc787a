package obs

// SampleAt runs one sampler sweep stamped now (Unix nanoseconds), so the
// external tests can drive a sampler by hand.
func (sp *Sampler) SampleAt(now int64) { sp.sample(now) }
