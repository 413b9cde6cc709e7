// Package cluster is the client-side sharding layer over sfserve backends:
// it fans a sweep out across N simulation servers by consistent-hashing each
// point's canonical cache key (system.CacheKey), so one backend owns each
// shard of the key space and its LRU/disk result cache stays hot for exactly
// that shard. The layer is built to be robust, not just parallel — bounded
// retries with exponential backoff and jitter, per-request timeouts, passive
// health checking with backend ejection and readmission, and graceful
// degradation to local in-process simulation when a shard (or the whole
// cluster) is down.
//
// Client implements experiments.ResultCache (and its PointCache extension),
// so `sfexp -backends host1,host2` is a drop-in for `-cache dir`: the sweep
// machinery is unchanged, and distributed results are bit-identical to local
// ones because every simulation is deterministic and content-addressed.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
)

// vnodesPerBackend is how many virtual nodes each backend contributes to the
// ring. 64 keeps the shard-size spread within a few percent of even for the
// backend counts this layer targets (2-32) while the ring stays tiny.
const vnodesPerBackend = 64

// ring is an immutable consistent-hash ring: vnodes sorted by position, each
// pointing at a backend index. Immutability keeps lookups lock-free; the
// backend set is fixed at Client construction (health state, which does
// change, lives in the Client, not here).
type ring struct {
	points []ringPoint
	n      int // number of distinct backends
}

type ringPoint struct {
	pos     uint64
	backend int
}

// newRing builds the ring for n backends identified by their addresses.
// Vnode positions are derived from the address, not the index, so adding a
// backend to the flag list remaps only ~1/n of the key space.
func newRing(addrs []string) *ring {
	r := &ring{n: len(addrs)}
	for i, addr := range addrs {
		for v := 0; v < vnodesPerBackend; v++ {
			r.points = append(r.points, ringPoint{
				pos:     hashString(fmt.Sprintf("%s#%d", addr, v)),
				backend: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].pos != r.points[b].pos {
			return r.points[a].pos < r.points[b].pos
		}
		// Tie-break on backend index so the ring is deterministic even in
		// the astronomically unlikely event of a position collision.
		return r.points[a].backend < r.points[b].backend
	})
	return r
}

// hashString positions a vnode label on the ring.
func hashString(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// keyPos maps a cache key onto the ring. Keys are system.CacheKey hex
// digests; their first 8 bytes are already uniformly distributed, so decode
// them directly instead of rehashing. Non-hex keys (possible through the raw
// ResultCache interface) fall back to hashing.
func keyPos(key string) uint64 {
	if len(key) >= 16 {
		if raw, err := hex.DecodeString(key[:16]); err == nil {
			return binary.BigEndian.Uint64(raw)
		}
	}
	return hashString(key)
}

// successors returns the distinct backends owning key, in preference order:
// the vnode at or after the key's position, then each next distinct backend
// around the ring. Every backend appears exactly once, so the slice doubles
// as the failover order.
func (r *ring) successors(key string) []int {
	if r.n == 0 {
		return nil
	}
	pos := keyPos(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].pos >= pos })
	order := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for i := 0; i < len(r.points) && len(order) < r.n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			order = append(order, p.backend)
		}
	}
	return order
}
