package system

// SetLayoutShards forces every machine to be built with n shards until
// the returned restore function runs. Not safe for parallel tests.
func SetLayoutShards(n int) (restore func()) {
	prev := layoutShards
	layoutShards = n
	return func() { layoutShards = prev }
}
