//go:build race

package cache_test

// raceEnabled reports whether the test binary was built with -race, which
// inflates allocation counts and makes sync.Pool drop items at random.
const raceEnabled = true
