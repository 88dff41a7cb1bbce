package instance

// MustInsertRow is InsertRow, panicking on error. For tests and
// statically known data.
func (in *Instance) MustInsertRow(path string, row Row) {
	if err := in.InsertRow(path, row); err != nil {
		panic(err)
	}
}
