package perfbench

import (
	"encoding/json"
	"fmt"
	"time"

	"apecache/internal/coherence"
	"apecache/internal/httplite"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// FanoutScalingGate bounds how much one publication may slow down when
// the subscriber fleet grows 16x under the sharded dispatcher (the CI
// fleet-storm gate). The legacy goroutine-per-delivery path sits near
// the fleet ratio itself; the sharded path must stay essentially flat.
const FanoutScalingGate = 3.0

// fanoutFleets are the subscriber counts compared: a rack's worth and
// the thousand-AP fleet.
var fanoutFleets = [2]int{64, 1024}

// deadEndHost is a transport.Host whose dials always fail — the
// benchmark measures publication cost, not delivery, and a refused dial
// is the cheapest honest stand-in for "the network happens elsewhere".
type deadEndHost struct{ name string }

func (h deadEndHost) Name() string                              { return h.name }
func (h deadEndHost) Listen(uint16) (transport.Listener, error) { return nil, transport.ErrRefused }
func (h deadEndHost) ListenPacket(uint16) (transport.PacketConn, error) {
	return nil, transport.ErrRefused
}
func (h deadEndHost) Dial(transport.Addr) (transport.Stream, error) { return nil, transport.ErrRefused }
func (h deadEndHost) Now() time.Time                                { return time.Now() }

// fanoutSubscribe registers n subscribers on the hub through the real
// subscribe route. Sharded subscribers declare one domain each, so the
// shard map can confine publications.
func fanoutSubscribe(hub *coherence.Hub, n int, sharded bool) {
	for i := 0; i < n; i++ {
		sub := coherence.Subscription{
			Addr: transport.Addr{Host: fmt.Sprintf("ap%04d", i), Port: 80},
			Path: coherence.DefaultPurgePath,
		}
		if sharded {
			sub.Domains = []string{fmt.Sprintf("app%d.example", i)}
			sub.Batch = true
		}
		body, err := json.Marshal(sub)
		if err != nil {
			panic(err)
		}
		req := httplite.NewRequest("POST", "hub", coherence.PathSubscribe)
		req.Body = body
		if resp := hub.ServeHTTP(req); resp.Status != 200 {
			panic(fmt.Sprintf("fanout subscribe: status %d", resp.Status))
		}
	}
}

// benchFanout times one purge publication through the hub's two fan-out
// engines at both fleet sizes. Legacy spawns one relay goroutine per
// subscriber on the publish path, so its cost tracks the fleet; the
// dispatcher only appends to the queues of the matching shard — sized
// here at ~8 subscribers per shard, the publication touches a constant
// number of queues however large the fleet gets. Delivery I/O runs
// against dead endpoints with eviction disabled, as a real hub's relay
// runs against the network: off the measured path.
func (r *Report) benchFanout(iters int) {
	n := iters / 100
	if n < 20 {
		n = 20
	}

	// Rotated publish bodies so consecutive ops hit different shards.
	bodies := make([][]byte, 16)
	for i := range bodies {
		b, err := json.Marshal(coherence.Msg{URL: fmt.Sprintf("http://app%d.example/obj", i), Version: 2})
		if err != nil {
			panic(err)
		}
		bodies[i] = b
	}
	publishOp := func(hub *coherence.Hub) func(int) {
		return func(i int) {
			req := httplite.NewRequest("POST", "hub", coherence.PathPublish)
			req.Body = bodies[i%len(bodies)]
			if resp := hub.ServeHTTP(req); resp.Status != 200 {
				panic(fmt.Sprintf("fanout publish: status %d", resp.Status))
			}
		}
	}

	var legacyNs, shardedNs [2]float64
	for fi, fleet := range fanoutFleets {
		legacy := coherence.NewHub(&vclock.Real{}, deadEndHost{"hub"}, nil)
		legacy.MaxFailures = -1
		fanoutSubscribe(legacy, fleet, false)
		legacyNs[fi] = timeOp(n, publishOp(legacy))

		sharded := coherence.NewHub(&vclock.Real{}, deadEndHost{"hub"}, nil)
		d := sharded.EnableDispatch(coherence.DispatchConfig{
			Shards:      fleet / 8,
			MaxFailures: -1,
		})
		fanoutSubscribe(sharded, fleet, true)
		shardedNs[fi] = timeOp(n, publishOp(sharded))
		d.Stop()

		r.Micros = append(r.Micros,
			Micro{Name: fmt.Sprintf("coherence/publish-legacy/%d-subs", fleet), NsPerOp: legacyNs[fi],
				Note: "goroutine-per-delivery fan-out on the publish path"},
			Micro{Name: fmt.Sprintf("coherence/publish-sharded/%d-subs", fleet), NsPerOp: shardedNs[fi],
				Note: "shard-routed enqueue, ~8 subscribers per shard"},
		)
	}

	r.Invariants = append(r.Invariants,
		Invariant{
			Name:  "fanout-publish-scaling-legacy",
			Value: round2(legacyNs[1] / legacyNs[0]),
			Note:  "legacy publication cost ratio, 64 -> 1024 subscribers (tracks the fleet ratio)",
		},
		Invariant{
			Name:  "fanout-publish-scaling-sharded",
			Value: round2(shardedNs[1] / shardedNs[0]),
			Note:  fmt.Sprintf("sharded publication cost ratio, 64 -> 1024 subscribers (acceptance bar: < %g — flat)", FanoutScalingGate),
		},
		Invariant{
			Name:  "fanout-publish-speedup-1024",
			Value: round2(legacyNs[1] / shardedNs[1]),
			Note:  "publication cost, legacy over sharded, at the thousand-AP fleet",
		},
	)
}
