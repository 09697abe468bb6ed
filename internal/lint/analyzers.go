package lint

// All returns the full analyzer registry in reporting order. The "directive"
// pseudo-analyzer (malformed //lint:allow comments) is implicit: the
// framework always reports it.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		ObsNil,
		ErrWrap,
		LockGuard,
		ChanClose,
		DocComment,
	}
}
