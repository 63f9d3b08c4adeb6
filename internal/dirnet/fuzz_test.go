package dirnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"anomalia/internal/core"
	"anomalia/internal/dist"
)

// checkWire drives one byte stream through the decoders a peer's bytes
// reach: readFrame, then decodeStatus on the payload (a response),
// decodeDecision on an OK body, and decodeWindow on the payload past
// its type byte (a request). None may panic; readFrame may take
// exactly one frame off the reader; no cursor may end past its buffer;
// and every message a decoder accepts must re-encode to the very bytes
// it came from (the encodings are canonical). It reports how many
// decoders accepted the stream.
func checkWire(t *testing.T, data []byte) int {
	r := bytes.NewReader(data)
	payload, rcvd, err := readFrame(r, nil)
	if err != nil {
		return 0
	}
	if consumed := len(data) - r.Len(); consumed != rcvd || rcvd != 4+len(payload) {
		t.Fatalf("readFrame took %d bytes for a %d-byte payload, reported %d", consumed, len(payload), rcvd)
	}
	if !bytes.Equal(payload, data[4:rcvd]) {
		t.Fatal("readFrame payload differs from the frame's bytes")
	}
	accepted := 0
	body, err := decodeStatus(payload)
	var se *serverError
	switch {
	case err == nil:
		c := &cursor{b: body}
		dec := decodeDecision(c)
		if c.off > len(c.b) {
			t.Fatalf("decodeDecision cursor at %d of %d", c.off, len(c.b))
		}
		if c.err() == nil {
			accepted++
			if got := appendDecision([]byte{statusOK}, dec); !bytes.Equal(got, payload) {
				t.Fatalf("decision round trip:\n got %x\nwant %x", got, payload)
			}
		}
	case errors.As(err, &se):
		accepted++
		if got := appendErr(nil, errors.New(se.msg)); !bytes.Equal(got, payload) {
			t.Fatalf("error status round trip:\n got %x\nwant %x", got, payload)
		}
	}
	if len(payload) > 0 {
		c := &cursor{b: payload, off: 1}
		w, err := decodeWindow(c)
		if c.off > len(c.b) {
			t.Fatalf("decodeWindow cursor at %d of %d", c.off, len(c.b))
		}
		if err == nil {
			accepted++
			if got := appendWindow(nil, payload[0], w); !bytes.Equal(got, payload) {
				t.Fatalf("window round trip:\n got %x\nwant %x", got, payload)
			}
		}
	}
	return accepted
}

// frameOf wraps a payload in its length prefix.
func frameOf(payload []byte) []byte {
	return append(appendU32(nil, uint32(len(payload))), payload...)
}

// wireSeeds are well-formed frames built by the encoders a real client
// and server exchange: window requests and decision and error
// responses.
func wireSeeds() [][]byte {
	dec := dist.Decision{
		Result: core.Result{
			Device: 17, Class: core.ClassMassive, Rule: core.RuleTheorem6,
			Dense: [][]int{{3, 17, 21}, {17, 40}},
			Cost:  core.Cost{MaximalMotions: 4, DenseMotions: 2, NeighborsScanned: 7, CollectionsTested: 123},
		},
		Stats: dist.Stats{Messages: 5, Trajectories: 9, ViewSize: 10},
	}
	return [][]byte{
		frameOf(appendWindow(nil, msgInit, windowMsg{seq: 1, r: 0.07, n: 10, d: 2})),
		frameOf(appendWindow(nil, msgAdvance, windowMsg{
			seq: 42, prevSeq: 41, r: 0.07, n: 1000, d: 3,
			ids:   []int{3, 17, 999},
			prev:  []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, math.NaN()},
			cur:   []float64{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, math.Inf(-1)},
			moved: []int{17},
		})),
		frameOf(appendDecision([]byte{statusOK}, dec)),
		frameOf(appendDecision([]byte{statusOK}, dist.Decision{Result: core.Result{Device: 3}})),
		frameOf(appendErr(nil, errors.New("window 7 unknown"))),
	}
}

// FuzzWireDecode feeds arbitrary bytes to the directory wire decoders
// (see checkWire), seeded with wireSeeds and a few malformed frames.
func FuzzWireDecode(f *testing.F) {
	seeds := wireSeeds()
	for _, s := range seeds {
		f.Add(s)
	}
	// A truncated frame, an oversized length prefix, an unknown status
	// byte and a bare need-init status.
	f.Add(seeds[1][:len(seeds[1])-3])
	f.Add(appendU32(nil, MaxFrame+1))
	f.Add(frameOf([]byte{0x7f, 1, 2, 3}))
	f.Add(frameOf([]byte{statusNeedInit}))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkWire(t, data)
	})
}

// TestWireSeedsRoundTrip: every well-formed seed of FuzzWireDecode is
// accepted by a decoder, so the seeds exercise the round-trip check.
func TestWireSeedsRoundTrip(t *testing.T) {
	t.Parallel()

	for i, s := range wireSeeds() {
		if checkWire(t, s) == 0 {
			t.Errorf("seed %d: no decoder accepted it", i)
		}
	}
}

// heldWindow is the window FuzzServerRespond's server holds (seq 1): a
// tight cluster of five abnormal devices plus two loners.
var heldWindow = windowMsg{
	seq: 1, r: 0.05, n: 20, d: 2,
	ids: []int{2, 3, 4, 5, 6, 11, 17},
	prev: []float64{
		0.30, 0.30, 0.31, 0.30, 0.30, 0.31, 0.32, 0.31, 0.31, 0.32,
		0.70, 0.10, 0.90, 0.90,
	},
	cur: []float64{
		0.50, 0.50, 0.51, 0.50, 0.50, 0.51, 0.52, 0.51, 0.51, 0.52,
		0.20, 0.60, 0.90, 0.80,
	},
}

// checkRespond feeds one request payload to a server holding heldWindow.
// respond must not panic and must produce exactly one status-led
// response; an OK window response has an empty body, and an OK
// decide-all response decodes to exactly to-from decisions.
func checkRespond(t *testing.T, payload []byte) {
	// A window request makes the server rebuild n-row states, so its cost
	// follows the declared population; keep the fuzzed ones small.
	if len(payload) >= 29 && (payload[0] == msgInit || payload[0] == msgAdvance) &&
		binary.LittleEndian.Uint32(payload[25:]) > 1<<12 {
		t.Skip("declared population too large to rebuild in a fuzz run")
	}
	s := NewServer()
	if out := s.respond(nil, appendWindow(nil, msgInit, heldWindow)); !bytes.Equal(out, []byte{statusOK}) {
		t.Fatalf("seeding the held window: response %x", out)
	}
	out := s.respond(nil, payload)
	body, err := decodeStatus(out)
	var se *serverError
	switch {
	case err == errNeedInit:
		if len(out) != 1 {
			t.Fatalf("need-init response carries %d trailing bytes", len(out)-1)
		}
		return
	case errors.As(err, &se):
		return
	case err != nil:
		t.Fatalf("malformed response %x: %v", out, err)
	}
	switch payload[0] {
	case msgInit, msgAdvance:
		if len(body) != 0 {
			t.Fatalf("window response carries %d bytes", len(body))
		}
	case msgDecideAll:
		req := &cursor{b: payload, off: 1}
		req.u64()
		decodeConfig(req)
		from, to := int(req.u32()), int(req.u32())
		c := &cursor{b: body}
		n := c.count(1)
		for i := 0; i < n && !c.bad; i++ {
			decodeDecision(c)
		}
		if err := c.err(); err != nil || n != to-from {
			t.Fatalf("decide-all [%d, %d) answered %d decisions (%v)", from, to, n, err)
		}
	default:
		t.Fatalf("message type %#x answered OK", payload[0])
	}
}

// FuzzServerRespond feeds arbitrary request payloads to Server.respond
// (see checkRespond), seeded with the requests a client sends and a few
// the server must reject: a NaN radius, out-of-range and reversed
// decide ranges, a stale window and an invalid config.
func FuzzServerRespond(f *testing.F) {
	cfg := core.Config{R: 0.05, Tau: 3, Exact: true}
	m := len(heldWindow.ids)
	next := heldWindow
	next.seq, next.prevSeq, next.moved = 2, 1, []int{3, 6}
	nan := heldWindow
	nan.r = math.NaN()
	nanCfg := cfg
	nanCfg.R = math.NaN()
	for _, p := range [][]byte{
		appendWindow(nil, msgInit, heldWindow),
		appendWindow(nil, msgAdvance, next),
		appendWindow(nil, msgInit, nan),
		appendWindow(nil, msgAdvance, windowMsg{seq: 9, prevSeq: 8, r: 0.05, n: 20, d: 2}),
		appendDecideAll(nil, 1, cfg, 0, m),
		appendDecideAll(nil, 1, cfg, 2, 5),
		appendDecideAll(nil, 1, cfg, 3, 3),
		appendDecideAll(nil, 1, cfg, 0, m+1),
		appendDecideAll(nil, 1, cfg, 5, 2),
		appendDecideAll(nil, 1, nanCfg, 0, m),
		appendDecideAll(nil, 1, core.Config{R: 0.05}, 0, m),
		appendDecideAll(nil, 7, cfg, 0, m),
		{},
		{0x7f},
	} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		checkRespond(t, payload)
	})
}
