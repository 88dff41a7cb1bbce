package core

// Snapshot returns the ordered accepted answers — everything needed
// (with the scenario) to rebuild the dialog on any replica via
// ResumeStepper. The slice and its choice lists are fresh copies.
func (st *Stepper) Snapshot() []Answer {
	out := make([]Answer, len(st.accepted))
	for i, a := range st.accepted {
		out[i] = cloneAnswer(a)
	}
	return out
}
