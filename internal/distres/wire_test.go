package distres

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"testing"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/obslog"
)

// obsFixture builds a deterministic observation corpus spanning both address
// families and all three protocols, unsorted on purpose.
func obsFixture(n int) []alias.Observation {
	out := make([]alias.Observation, 0, n)
	for i := 0; i < n; i++ {
		var a netip.Addr
		if i%3 == 0 {
			a = netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i)})
		} else {
			a = netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 1})
		}
		out = append(out, alias.Observation{
			Addr: a,
			ID: ident.Identifier{
				Proto:  ident.Protocols[i%len(ident.Protocols)],
				Digest: fmt.Sprintf("digest-%03d", i%37),
			},
		})
	}
	return out
}

// TestObsRequestArrivalOrderIndependent pins the canonical-wire contract:
// the encoded bytes are a function of the observation multiset, not of
// arrival order or duplication.
func TestObsRequestArrivalOrderIndependent(t *testing.T) {
	fwd := obsFixture(50)
	rev := make([]alias.Observation, len(fwd))
	for i, o := range fwd {
		rev[len(fwd)-1-i] = o
	}
	dup := append(append([]alias.Observation{}, fwd...), fwd[:10]...)

	a := encodeObsRequest(append([]alias.Observation{}, fwd...))
	b := encodeObsRequest(rev)
	c := encodeObsRequest(dup)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("wire bytes depend on arrival order")
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatal("wire bytes depend on duplication")
	}

	m, err := decodeMessage(a)
	if err != nil {
		t.Fatal(err)
	}
	if m.op != opObs {
		t.Fatalf("op = %d, want opObs", m.op)
	}
	if err := m.checkCount(); err != nil {
		t.Fatal(err)
	}
	want := canonObs(append([]alias.Observation{}, fwd...))
	if !reflect.DeepEqual(m.obs, want) {
		t.Fatalf("round trip decoded %d obs, want %d canonical", len(m.obs), len(want))
	}
}

// TestObsRequestChunksLargeBatches drives the encoder past frameTarget so
// the stream spans several content frames, and requires a lossless decode.
func TestObsRequestChunksLargeBatches(t *testing.T) {
	obs := obsFixture(5000)
	for i := range obs {
		// Unique digests defeat dedup so the payload really exceeds one frame.
		obs[i].ID.Digest = fmt.Sprintf("unique-digest-%05d-%s", i, obs[i].ID.Digest)
	}
	body := encodeObsRequest(append([]alias.Observation{}, obs...))
	if len(body) <= frameTarget {
		t.Fatalf("fixture too small to chunk: %d bytes", len(body))
	}
	m, err := decodeMessage(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.checkCount(); err != nil {
		t.Fatal(err)
	}
	if len(m.obs) != len(obs) {
		t.Fatalf("decoded %d observations, want %d", len(m.obs), len(obs))
	}
}

// TestSetStreamRoundTrip round-trips an alias-set stream for every op that
// carries one.
func TestSetStreamRoundTrip(t *testing.T) {
	sets := []alias.Set{
		alias.NewSet(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")),
		alias.NewSet(netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("10.9.9.9")),
		alias.NewSet(netip.MustParseAddr("192.0.2.7")),
	}
	for _, op := range []byte{opSets, opMerge} {
		body := encodeSetStream(op, ident.SSH, sets)
		m, err := decodeMessage(body)
		if err != nil {
			t.Fatal(err)
		}
		if m.op != op || (op == opSets && m.proto != ident.SSH) {
			t.Fatalf("op/proto = %d/%v", m.op, m.proto)
		}
		if err := m.checkCount(); err != nil {
			t.Fatal(err)
		}
		if len(m.sets) != len(sets) {
			t.Fatalf("decoded %d sets, want %d", len(m.sets), len(sets))
		}
		for i := range sets {
			if !reflect.DeepEqual(m.sets[i].Addrs, sets[i].Addrs) {
				t.Fatalf("set %d: %v != %v", i, m.sets[i].Addrs, sets[i].Addrs)
			}
		}
	}
}

// TestAckRoundTrip pins the opObs acknowledgement shape: the count is the
// applied total and carries no records.
func TestAckRoundTrip(t *testing.T) {
	m, err := decodeMessage(encodeAck(12345))
	if err != nil {
		t.Fatal(err)
	}
	if m.op != opObs || m.count != 12345 || m.records != 0 {
		t.Fatalf("ack = %+v", m)
	}
}

// TestCorruptionAndTruncationRejected flips and cuts the stream every way a
// network can and requires decodeMessage (or checkCount) to refuse each one.
func TestCorruptionAndTruncationRejected(t *testing.T) {
	body := encodeSetStream(opSets, ident.BGP, []alias.Set{
		alias.NewSet(netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")),
	})

	t.Run("bit flip", func(t *testing.T) {
		for _, i := range []int{5, len(body) / 2, len(body) - 3} {
			mut := append([]byte{}, body...)
			mut[i] ^= 0x40
			if m, err := decodeMessage(mut); err == nil {
				if err := m.checkCount(); err == nil {
					t.Fatalf("corrupt byte %d slipped through", i)
				}
			}
		}
	})

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{1, 9, len(body) - 1} {
			if _, err := decodeMessage(body[:len(body)-cut]); err == nil {
				t.Fatalf("stream cut by %d bytes slipped through", cut)
			}
		}
	})

	t.Run("excised frame", func(t *testing.T) {
		// Remove the content frame cleanly: framing and CRCs stay valid, so
		// only the end-frame record accounting can catch it.
		_, hdr, ok := obslog.NextFrame(body)
		if !ok {
			t.Fatal("no header frame")
		}
		_, content, ok := obslog.NextFrame(body[hdr:])
		if !ok {
			t.Fatal("no content frame")
		}
		mut := append(append([]byte{}, body[:hdr]...), body[hdr+content:]...)
		m, err := decodeMessage(mut)
		if err != nil {
			t.Fatalf("excised frame should decode structurally: %v", err)
		}
		if err := m.checkCount(); err == nil {
			t.Fatal("excised content frame slipped through the record count")
		}
	})

	t.Run("garbage header", func(t *testing.T) {
		if _, err := decodeMessage([]byte("not a frame at all")); err == nil {
			t.Fatal("garbage accepted")
		}
	})
}

// TestSetRecordSizeBoundedByInput: a 4-byte set record declaring 1<<24
// addresses is rejected before anything is allocated for them — a hostile
// peer cannot buy a 400 MiB allocation with four bytes.
func TestSetRecordSizeBoundedByInput(t *testing.T) {
	rec := binary.LittleEndian.AppendUint32(nil, 1<<24)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeSetRecords(rec, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("oversized set record accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting the record allocated %d bytes, want < 1 MiB", grew)
	}
	// A record declaring exactly as many addresses as it carries decodes.
	ok := appendAddr(binary.LittleEndian.AppendUint32(nil, 1), netip.MustParseAddr("192.0.2.1"))
	if sets, err := decodeSetRecords(ok, nil); err != nil || len(sets) != 1 {
		t.Fatalf("well-formed record: sets %v, err %v", sets, err)
	}
}
