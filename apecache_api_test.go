package apecache_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"apecache"
	"apecache/internal/objstore"
)

// TestPublicAPIOverRealSockets drives the entire public surface — AP,
// client, registry (both programming models), policies — over genuine
// loopback sockets, the way a downstream user would.
func TestPublicAPIOverRealSockets(t *testing.T) {
	env := apecache.RealEnv()
	host := apecache.NewRealHost("")

	obj := &objstore.Object{
		URL:         "http://api.pub.example/payload",
		App:         "pub",
		Size:        16 << 10,
		TTL:         apecache.DefaultTTL,
		Priority:    apecache.PriorityHigh,
		OriginDelay: 20 * time.Millisecond,
	}
	catalog := objstore.NewCatalog(obj)

	origin := objstore.NewOriginServer(env, catalog)
	originL, err := origin.Run(host, 0)
	if err != nil {
		t.Fatalf("origin: %v", err)
	}
	defer originL.Close()
	edge := objstore.NewEdgeCacheServer(env, host, catalog, originL.Addr())
	edgeL, err := edge.Run(host, 0)
	if err != nil {
		t.Fatalf("edge: %v", err)
	}
	defer edgeL.Close()

	// Zero ports would mean the defaults (53/8080), which need
	// privileges; bind high test ports instead.
	ap := apecache.NewAP(apecache.APConfig{
		Env:           env,
		Host:          host,
		EdgeAddr:      edgeL.Addr(),
		CacheCapacity: 1 << 20,
		Policy:        apecache.NewPACM(),
		Rng:           rand.New(rand.NewSource(1)),
		DNSPort:       35353,
		HTTPPort:      38080,
	})
	if err := ap.Start(); err != nil {
		t.Fatalf("ap.Start: %v", err)
	}
	defer ap.Stop()

	// Annotation model.
	type payloadHolder struct {
		Payload []byte `cacheable:"id=http://api.pub.example/payload,priority=2,ttl=30"`
	}
	registry := apecache.NewRegistry("pub")
	if err := registry.RegisterStruct(&payloadHolder{}); err != nil {
		t.Fatalf("RegisterStruct: %v", err)
	}

	client := apecache.NewClient(apecache.ClientConfig{
		Env:      env,
		Host:     host,
		Registry: registry,
		APDNS:    ap.DNSAddr(),
		APHTTP:   ap.HTTPAddr(),
		Rng:      rand.New(rand.NewSource(2)),
		FlagTTL:  time.Millisecond,
	})

	want := obj.Body()
	for i := range 3 {
		body, err := client.Get("http://api.pub.example/payload?n=" + string(rune('a'+i)))
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("Get %d: corrupted body", i)
		}
	}
	if ap.Snapshot().Delegations != 1 {
		t.Errorf("Delegations = %d, want 1 (then cache hits)", ap.Snapshot().Delegations)
	}
	if hits := client.Stats().Hits.All.Hits(); hits != 2 {
		t.Errorf("client hits = %d, want 2", hits)
	}

	// API-based model on the same client.
	if _, err := client.InvokeHTTPRequest("http://api.pub.example/payload", apecache.PriorityHigh, apecache.DefaultTTL); err != nil {
		t.Fatalf("InvokeHTTPRequest: %v", err)
	}
}

func TestFacadeHelpers(t *testing.T) {
	if apecache.HashURL("a") == apecache.HashURL("b") {
		t.Error("HashURL trivial collision")
	}
	if got := apecache.BasicURL("http://x/y?z=1"); got != "http://x/y" {
		t.Errorf("BasicURL = %q", got)
	}
	if apecache.NewPACM() == nil || apecache.NewLRU() == nil {
		t.Error("policy constructors returned nil")
	}
	if apecache.PriorityLow != 1 || apecache.PriorityHigh != 2 {
		t.Error("priority constants drifted from the paper's 1/2")
	}
}
