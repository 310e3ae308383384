package coopmesh

import (
	"encoding/json"
	"fmt"
	"sort"

	"apecache/internal/cachepolicy"
	"apecache/internal/transport"
)

// Directory route constants. The controller mounts them under /mesh so
// they share the Wi-Cache controller's mux with /locate and /fleet.
const (
	PathPrefix  = "/mesh"
	PathSummary = PathPrefix + "/summary"
	PathLookup  = PathPrefix + "/lookup"
	PathPeers   = PathPrefix + "/peers"
)

// Summary is one AP's published content summary: what the AP can serve a
// peer right now, compressed to a Bloom filter plus per-domain digests.
// Seq orders publications from one node (the directory drops reordered
// deliveries); Generation counts coherence purges applied at the AP, so
// two summaries with equal entry counts still differ after a purge.
type Summary struct {
	Node       string                   `json:"node"`
	Addr       transport.Addr           `json:"addr"`
	Seq        uint64                   `json:"seq"`
	Generation uint64                   `json:"generation"`
	Entries    int                      `json:"entries"`
	Bloom      *Bloom                   `json:"bloom,omitempty"`
	Domains    []cachepolicy.MeshDomain `json:"domains,omitempty"`
}

// BuildSummary snapshots a store into a publishable summary whose Bloom
// filter is sized for DefaultFPRate.
func BuildSummary(node string, addr transport.Addr, store *cachepolicy.Store, seq, generation uint64) *Summary {
	hashes, domains := store.MeshView()
	sort.Slice(domains, func(i, j int) bool { return domains[i].Domain < domains[j].Domain })
	s := &Summary{Node: node, Addr: addr, Seq: seq, Generation: generation,
		Entries: len(hashes), Domains: domains}
	if len(hashes) > 0 {
		s.Bloom = NewBloom(len(hashes))
		for _, h := range hashes {
			s.Bloom.Add(h)
		}
	}
	return s
}

// Encode renders the summary for the wire.
func (s *Summary) Encode() ([]byte, error) {
	body, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("coopmesh: encode summary: %w", err)
	}
	return body, nil
}

// DecodeSummary parses and validates a published summary.
func DecodeSummary(body []byte) (*Summary, error) {
	var s Summary
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("coopmesh: decode summary: %w", err)
	}
	if s.Node == "" {
		return nil, fmt.Errorf("coopmesh: summary without node")
	}
	if s.Addr.IsZero() {
		return nil, fmt.Errorf("coopmesh: summary without serve address")
	}
	if err := s.Bloom.valid(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Candidate is one directory lookup answer: a peer whose summary says it
// likely holds the object, plus how old that summary is (the requester
// folds staleness into its trust in the answer).
type Candidate struct {
	Node   string         `json:"node"`
	Addr   transport.Addr `json:"addr"`
	AgeSec float64        `json:"age_sec"`
}
