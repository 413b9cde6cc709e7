// Package chaos is a deterministic fault-injection HTTP proxy for cluster
// tests: it forwards requests to one real backend and, per a scripted
// decision function, drops connections, delays responses, truncates bodies
// mid-stream, or replies 5xx. Faults are chosen by request index (and the
// request itself), not by randomness, so a failing test replays exactly.
package chaos

import (
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Fault is one injectable failure mode.
type Fault int

const (
	// FaultNone forwards the request untouched.
	FaultNone Fault = iota
	// FaultDrop kills the connection without writing any response — the
	// client sees a transport error (connection reset / EOF).
	FaultDrop
	// FaultDelay sleeps before forwarding (tail-latency injection; pair
	// with the client's RequestTimeout to exercise the timed-out retry).
	FaultDelay
	// Fault5xx replies 503 without contacting the backend.
	Fault5xx
	// FaultTruncate forwards the request but writes only half the response
	// body under the full Content-Length, then kills the connection — the
	// client sees an unexpected EOF mid-body.
	FaultTruncate
	// FaultHang accepts the request and then never responds: the connection
	// stays open, silent, until the client gives up. This is the stand-in
	// for a livelocked backend — only a client-side timeout (or watchdog)
	// detects it, unlike FaultDrop's immediate transport error.
	FaultHang
	// FaultPanic mimics a backend whose handler panicked mid-response: it
	// promises a body via Content-Length, writes the first few bytes of a
	// JSON object, then severs the connection. Distinct from FaultTruncate
	// in that no backend is contacted and the partial body is garbage, not a
	// prefix of a real response.
	FaultPanic
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case Fault5xx:
		return "5xx"
	case FaultTruncate:
		return "truncate"
	case FaultHang:
		return "hang"
	case FaultPanic:
		return "panic"
	}
	return "Fault(" + strconv.Itoa(int(f)) + ")"
}

// Decision is the scripted outcome for one request.
type Decision struct {
	Fault Fault
	Delay time.Duration // only read for FaultDelay
}

// Proxy is an http.Handler fronting one backend with scripted faults.
// Mount it under httptest.NewServer and point a cluster.Client at it.
type Proxy struct {
	target string // backend base URL, no trailing slash
	decide func(n int, r *http.Request) Decision
	client *http.Client

	n        atomic.Int64 // requests seen
	injected [FaultPanic + 1]atomic.Int64
}

// New builds a proxy for target ("http://host:port"). decide is called with
// the 0-based request index and the incoming request; nil means never
// inject (a transparent proxy).
func New(target string, decide func(n int, r *http.Request) Decision) *Proxy {
	if decide == nil {
		decide = func(int, *http.Request) Decision { return Decision{} }
	}
	return &Proxy{target: target, decide: decide, client: &http.Client{}}
}

// Requests returns how many requests the proxy has seen.
func (p *Proxy) Requests() int64 { return p.n.Load() }

// Injected returns how many times a fault kind was injected.
func (p *Proxy) Injected(f Fault) int64 {
	if f < 0 || int(f) >= len(p.injected) {
		return 0
	}
	return p.injected[f].Load()
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	n := int(p.n.Add(1) - 1)
	d := p.decide(n, r)
	if d.Fault != FaultNone {
		p.injected[d.Fault].Add(1)
	}
	switch d.Fault {
	case FaultDrop:
		// ErrAbortHandler makes net/http sever the connection without a
		// response: the cleanest stand-in for a crashed backend.
		panic(http.ErrAbortHandler)
	case Fault5xx:
		http.Error(w, "chaos: injected 503", http.StatusServiceUnavailable)
		return
	case FaultHang:
		// Drain the body first: net/http only watches for a client
		// disconnect once the request has been consumed, and without that
		// the context would never fire and the handler would leak. Then
		// hold the connection open, silent, until the client abandons it.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
		return
	case FaultPanic:
		// Promise a body, emit a fragment of one, then sever the connection
		// mid-stream — what a client sees when a backend handler panics
		// after its first write.
		w.Header().Set("Content-Length", "1024")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"key":`)
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	case FaultDelay:
		select {
		case <-time.After(d.Delay):
		case <-r.Context().Done():
			return
		}
	}
	p.forward(w, r, d.Fault == FaultTruncate)
}

// forward relays the request to the backend and copies the response back,
// optionally truncating the body halfway and aborting the connection.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, truncate bool) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.target+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(w, "chaos: "+err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		http.Error(w, "chaos: "+err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		http.Error(w, "chaos: "+err.Error(), http.StatusBadGateway)
		return
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	// Announce the full length even when truncating, so the client's reader
	// hits an unexpected EOF instead of a clean short body.
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(resp.StatusCode)
	if truncate {
		w.Write(body[:len(body)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	w.Write(body)
}
