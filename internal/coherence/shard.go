package coherence

import (
	"hash/fnv"
	"sort"

	"apecache/internal/dnswire"
)

// shardVnodes is the number of ring positions per shard. 64 virtual
// nodes keep the domain load spread within a few percent of even while
// the ring stays small enough to rebuild instantly.
const shardVnodes = 64

// ShardMap assigns domains to shards with a consistent-hash ring
// (FNV-64 over "shard/vnode" ring points, binary search per lookup).
// Subscribers that register domain interest are attached only to the
// shards their domains hash to, so a purge publication touches the
// subscribers that could hold the object instead of the whole fleet.
// The ring depends only on the shard count, so every node that agrees
// on DispatchConfig.Shards agrees on the mapping.
type ShardMap struct {
	shards int
	ring   []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewShardMap builds the ring for n shards (n < 1 means 1).
func NewShardMap(n int) *ShardMap {
	if n < 1 {
		n = 1
	}
	m := &ShardMap{shards: n, ring: make([]ringPoint, 0, n*shardVnodes)}
	var key [16]byte
	for s := 0; s < n; s++ {
		for v := 0; v < shardVnodes; v++ {
			h := fnv.New64a()
			put64 := func(x uint64, off int) {
				for i := 0; i < 8; i++ {
					key[off+i] = byte(x >> (8 * i))
				}
			}
			put64(uint64(s), 0)
			put64(uint64(v), 8)
			h.Write(key[:])
			m.ring = append(m.ring, ringPoint{hash: h.Sum64(), shard: s})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool { return m.ring[i].hash < m.ring[j].hash })
	return m
}

// Shard maps a domain to its shard: the first ring point clockwise from
// the domain's hash.
func (m *ShardMap) Shard(domain string) int {
	h := fnv.New64a()
	h.Write([]byte(domain))
	target := h.Sum64()
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= target })
	if i == len(m.ring) {
		i = 0
	}
	return m.ring[i].shard
}

// ShardURL maps a purge URL to its shard via the URL's domain.
func (m *ShardMap) ShardURL(url string) int {
	return m.Shard(dnswire.URLDomain(url))
}
