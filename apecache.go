// Package apecache is the public API of the APE-CACHE reproduction — a
// millisecond-level edge cache that runs directly on WiFi access points
// (Li, Shrestha, Song, Tilevich: "Edge Cache on WiFi Access Points:
// Millisecond-Level App Latency Almost for Free", ICDCS 2024).
//
// The library has two halves:
//
//   - The client runtime (Client): an HTTP client that intercepts requests
//     for developer-declared cacheable objects, piggybacks cache lookups
//     into DNS queries (custom DNS-Cache resource records), and fetches
//     each object from the AP cache, the edge cache, or through AP
//     delegation depending on the returned flag. Cacheable objects are
//     declared either with struct tags (the Go analog of the paper's Java
//     annotations) or through the explicit registry API.
//
//   - The AP runtime (AP): a DNS forwarder extended with DNS-Cache query
//     handling plus an object cache managed by the Priority-Aware Cache
//     Management algorithm (PACM) — utility-driven eviction under a
//     capacity budget and a Gini-coefficient fairness constraint.
//
// Both halves run identically over real UDP/TCP sockets (package
// internal/realnet, used by the cmd/ daemons) and over the deterministic
// virtual-time network simulator (internal/simnet + internal/vclock) that
// the experiment harness uses to reproduce the paper's evaluation; see
// cmd/apebench and EXPERIMENTS.md.
package apecache

import (
	"time"

	"apecache/internal/apcache"
	"apecache/internal/apeclient"
	"apecache/internal/cachepolicy"
	"apecache/internal/coherence"
	"apecache/internal/dnswire"
	"apecache/internal/objstore"
	"apecache/internal/realnet"
	"apecache/internal/telemetry"
	"apecache/internal/transport"
	"apecache/internal/vclock"
)

// Priority levels for cacheable objects (the paper's 1 = low, 2 = high).
const (
	PriorityLow  = objstore.PriorityLow
	PriorityHigh = objstore.PriorityHigh
)

// Cacheable declares one cacheable object: its basic URL identity, its
// priority, and its time-to-live.
type Cacheable = apeclient.Cacheable

// Registry holds an app's cacheable declarations. Populate it with
// Register (API model) or RegisterStruct (annotation/struct-tag model).
type Registry = apeclient.Registry

// NewRegistry creates an empty registry for the named app.
func NewRegistry(app string) *Registry { return apeclient.NewRegistry(app) }

// Client is the APE-CACHE-enhanced HTTP client.
type Client = apeclient.Client

// ClientConfig assembles a Client; see apeclient.Config for field
// documentation.
type ClientConfig = apeclient.Config

// NewClient builds a client runtime.
func NewClient(cfg ClientConfig) *Client { return apeclient.New(cfg) }

// AP is the access-point runtime: DNS-Cache server, object cache and
// delegation proxy.
type AP = apcache.AP

// APConfig assembles an AP; see apcache.Config for field documentation.
type APConfig = apcache.Config

// NewAP builds an AP runtime; call Start on the result.
func NewAP(cfg APConfig) *AP { return apcache.New(cfg) }

// CachePolicy selects the AP's eviction policy.
type CachePolicy = cachepolicy.Policy

// NewPACM returns the paper's Priority-Aware Cache Management policy.
func NewPACM() CachePolicy { return cachepolicy.NewPACM() }

// NewLRU returns the LRU baseline policy.
func NewLRU() CachePolicy { return cachepolicy.NewLRU() }

// CoherenceMode selects how the AP reacts to origin purge messages
// relayed over the invalidation bus; see internal/coherence.
type CoherenceMode = coherence.Mode

// Coherence modes: TTL-only (off), immediate eviction, or
// stale-while-revalidate.
const (
	CoherenceOff        = coherence.ModeOff
	CoherenceInvalidate = coherence.ModeInvalidate
	CoherenceSWR        = coherence.ModeSWR
)

// ParseCoherenceMode maps a CLI/config string ("off", "invalidate",
// "swr") to a CoherenceMode.
func ParseCoherenceMode(s string) (CoherenceMode, error) { return coherence.ParseMode(s) }

// Telemetry bundles a process's metrics registry and request tracer;
// see internal/telemetry. Every server that accepts one registers its
// instruments on the shared registry, and Register mounts the exposition
// endpoints (/metrics, /debug/vars, /debug/pprof, /trace) on a daemon's
// HTTP mux.
type Telemetry = telemetry.Telemetry

// NewTelemetry builds a telemetry bundle on env's clock.
func NewTelemetry(env Env) *Telemetry { return telemetry.New(env) }

// Addr identifies a transport endpoint (host + port).
type Addr = transport.Addr

// Host is one machine's view of the network: simulated nodes and real
// network stacks both satisfy it.
type Host = transport.Host

// NewRealHost returns a Host backed by the operating system's sockets,
// bound to ip (empty means 127.0.0.1).
func NewRealHost(ip string) Host { return realnet.NewHost(ip) }

// Env couples a clock with task spawning; protocol code runs against it
// so the same binaries work under real time and simulated time.
type Env = vclock.Env

// RealEnv returns the wall-clock environment used by the daemons.
func RealEnv() Env { return &vclock.Real{} }

// HashURL returns the DNS-Cache hash of a URL (FNV-1a, 64-bit).
func HashURL(url string) uint64 { return dnswire.HashURL(url) }

// BasicURL strips query parameters and fragments: the cache identity of a
// URL.
func BasicURL(url string) string { return dnswire.BasicURL(url) }

// DefaultTTL is a convenient TTL for examples (30 minutes, the midpoint
// of the paper's 10–60 minute range).
const DefaultTTL = 30 * time.Minute
