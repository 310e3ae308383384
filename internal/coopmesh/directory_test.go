package coopmesh

import (
	"encoding/json"
	"net/url"
	"strings"
	"testing"
	"time"

	"apecache/internal/dnswire"
	"apecache/internal/httplite"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// testSummary fabricates a published summary claiming the given URLs.
func testSummary(node string, seq uint64, urls ...string) *Summary {
	s := &Summary{
		Node: node,
		Addr: transport.Addr{Host: node, Port: 8080},
		Seq:  seq, Entries: len(urls),
	}
	if len(urls) > 0 {
		s.Bloom = NewBloom(len(urls))
		for _, u := range urls {
			s.Bloom.Add(dnswire.HashURL(dnswire.BasicURL(u)))
		}
	}
	return s
}

func TestDirectoryIngestDropsStaleSeq(t *testing.T) {
	sim := vclock.NewSim(time.Time{})
	d := NewDirectory(sim)
	const u = "http://a.example/x"
	if err := d.Ingest(testSummary("ap0", 2, u)); err != nil {
		t.Fatal(err)
	}
	// A delayed older summary (and a duplicate delivery) must not
	// overwrite the newer picture — and must not error either.
	if err := d.Ingest(testSummary("ap0", 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(testSummary("ap0", 2)); err != nil {
		t.Fatal(err)
	}
	if d.summaries.Value() != 1 {
		t.Fatalf("Summaries = %d, want 1", d.summaries.Value())
	}
	if got := d.Lookup(u, "other"); len(got) != 1 || got[0].Node != "ap0" {
		t.Fatalf("lookup after stale-seq replay = %+v, want ap0", got)
	}
	if err := d.Ingest(testSummary("ap0", 3)); err != nil {
		t.Fatal(err)
	}
	if got := d.Lookup(u, "other"); len(got) != 0 {
		t.Fatalf("seq-3 summary no longer claims %s, lookup = %+v", u, got)
	}
}

func TestDirectoryLookupExcludesRequesterAndSortsFreshest(t *testing.T) {
	const u = "http://a.example/x"
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		d := NewDirectory(sim)
		if err := d.Ingest(testSummary("ap0", 1, u)); err != nil {
			t.Error(err)
		}
		sim.Sleep(3 * time.Second)
		if err := d.Ingest(testSummary("ap1", 1, u)); err != nil {
			t.Error(err)
		}
		if err := d.Ingest(testSummary("ap2", 1, "http://other.example/y")); err != nil {
			t.Error(err)
		}

		got := d.Lookup(u, "ap1")
		if len(got) != 1 || got[0].Node != "ap0" {
			t.Errorf("lookup from ap1 = %+v, want just ap0 (self excluded, ap2 not a member)", got)
		}
		got = d.Lookup(u, "other")
		if len(got) != 2 || got[0].Node != "ap1" || got[1].Node != "ap0" {
			t.Errorf("lookup = %+v, want freshest-first [ap1 ap0]", got)
		}
		if got[0].AgeSec >= got[1].AgeSec {
			t.Errorf("ages not ascending: %+v", got)
		}
		if d.lookups.Value() != 2 || d.lookupHits.Value() != 2 {
			t.Errorf("Lookups=%d LookupHits=%d, want 2/2", d.lookups.Value(), d.lookupHits.Value())
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

// A purge tombstones the URL: peers whose summary predates it stop being
// offered until they publish a fresh summary.
func TestDirectoryPurgeTombstone(t *testing.T) {
	const u = "http://a.example/x"
	sim := vclock.NewSim(time.Time{})
	sim.Run("main", func() {
		d := NewDirectory(sim)
		if err := d.Ingest(testSummary("ap0", 1, u)); err != nil {
			t.Error(err)
		}
		sim.Sleep(time.Second)
		if len(d.Lookup(u, "other")) != 1 {
			t.Error("pre-purge lookup found nothing")
		}
		d.Purge(u)
		if got := d.Lookup(u, "other"); len(got) != 0 {
			t.Errorf("post-purge lookup = %+v, want none", got)
		}
		// Other URLs from the same peer stay unaffected.
		if err := d.Ingest(testSummary("ap1", 1, "http://b.example/z")); err != nil {
			t.Error(err)
		}
		if len(d.Lookup("http://b.example/z", "other")) != 1 {
			t.Error("tombstone for one URL hid an unrelated one")
		}
		// A summary published after the purge reflects post-purge contents
		// and may be offered again (the AP re-cached the object).
		sim.Sleep(time.Second)
		if err := d.Ingest(testSummary("ap0", 2, u)); err != nil {
			t.Error(err)
		}
		if got := d.Lookup(u, "other"); len(got) != 1 || got[0].Node != "ap0" {
			t.Errorf("post-republish lookup = %+v, want ap0 again", got)
		}
		if d.purges.Value() != 1 {
			t.Errorf("Purges = %d, want 1", d.purges.Value())
		}
	})
	sim.Shutdown()
	sim.Wait()
	if err := sim.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectoryHandlers(t *testing.T) {
	const u = "http://a.example/x"
	sim := vclock.NewSim(time.Time{})
	d := NewDirectory(sim)

	if resp := d.handleSummary(&httplite.Request{Body: []byte("{")}); resp.Status != 400 {
		t.Errorf("bad summary body: status %d, want 400", resp.Status)
	}
	body, err := testSummary("ap0", 1, u).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if resp := d.handleSummary(&httplite.Request{Body: body}); resp.Status != 200 {
		t.Errorf("summary post: status %d, want 200", resp.Status)
	}

	if resp := d.handleLookup(&httplite.Request{Path: PathLookup}); resp.Status != 400 {
		t.Errorf("lookup without u: status %d, want 400", resp.Status)
	}
	lreq := &httplite.Request{Path: PathLookup + "?u=" + url.QueryEscape(u) + "&from=ap1"}
	resp := d.handleLookup(lreq)
	if resp.Status != 200 {
		t.Fatalf("lookup: status %d", resp.Status)
	}
	var cands []Candidate
	if err := json.Unmarshal(resp.Body, &cands); err != nil {
		t.Fatal(err)
	}
	if len(cands) != 1 || cands[0].Node != "ap0" {
		t.Errorf("lookup body = %+v, want ap0", cands)
	}

	presp := d.handlePeers(&httplite.Request{Path: PathPeers})
	if presp.Status != 200 || !strings.Contains(string(presp.Body), `"ap0"`) {
		t.Errorf("peers listing: status %d body %s", presp.Status, presp.Body)
	}
}
