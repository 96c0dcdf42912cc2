package distres

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"

	"aliaslimit/internal/alias"
	"aliaslimit/internal/ident"
	"aliaslimit/internal/obslog"
)

// The coordinator↔worker wire format reuses the obslog frame discipline —
// u32le payload length | payload | u32le CRC-32C (Castagnoli) — so a
// truncated or corrupted stream is detected by the same checksum walk that
// guards the observation log. A message is a frame sequence:
//
//	header frame:  'D' 'R' 'E' 'S' | version | op | proto
//	content frames: kind byte | records           (zero or more)
//	end frame:     0x1F | u64le record count
//
// The end frame's count must equal the records decoded from the content
// frames, so a stream cut between frames (which framing alone cannot catch)
// is rejected too. Three ops exist: opObs streams identifier observations
// coordinator→worker, opSets requests one protocol's alias sets back, and
// opMerge ships alias-set partitions for a shard-local union-find collapse.
// Observation batches are canonicalised — sorted by (proto, addr, digest)
// and deduplicated — before encoding, so the wire bytes for a given
// observation multiset are identical regardless of arrival order, mirroring
// the obslog's canonical epoch folding. Set streams are canonical by
// construction (alias.SortSets on the producing side).
//
// Records are compact: an observation is proto(1) | addrlen(1) | addr(4|16)
// | digestlen(u16le) | digest; an alias set is count(u32le) followed by
// addrlen(1) | addr(4|16) per address — the per-shard union-find state comes
// back as its component sets, which is the minimal edge information the
// coordinator needs for the final cross-shard merge.

// wireVersion is the protocol version the header frame records.
const wireVersion = 1

// wireMagic opens every message header.
var wireMagic = [4]byte{'D', 'R', 'E', 'S'}

// Ops distinguish the three message kinds.
const (
	opObs   = 1 // observation stream, coordinator → worker
	opSets  = 2 // alias-set request/response for one protocol
	opMerge = 3 // partition collapse request/response
)

// Content frame kinds (first payload byte). The header frame starts with
// 'D' (0x44) and collides with none of them.
const (
	kindObsBatch = 0x10 // observation records
	kindSetBatch = 0x11 // alias-set records
	kindEnd      = 0x1f // end marker carrying the total record count
)

// frameTarget is the soft payload size content frames are chunked to: large
// enough to amortise the 8-byte frame overhead and the CRC pass, small
// enough that a corrupt frame loses little.
const frameTarget = 64 << 10

// canonObs sorts observations by (proto, addr, digest) and collapses exact
// duplicates, in place. Every observation batch passes through here before
// encoding — the wire bytes are a function of the observation multiset, not
// of arrival order.
func canonObs(obs []alias.Observation) []alias.Observation {
	sort.Slice(obs, func(i, j int) bool {
		a, b := obs[i], obs[j]
		if a.ID.Proto != b.ID.Proto {
			return a.ID.Proto < b.ID.Proto
		}
		if c := a.Addr.Compare(b.Addr); c != 0 {
			return c < 0
		}
		return a.ID.Digest < b.ID.Digest
	})
	out := obs[:0]
	for i, o := range obs {
		if i > 0 && o == obs[i-1] {
			continue
		}
		out = append(out, o)
	}
	return out
}

// appendHeader appends the message header frame.
func appendHeader(dst []byte, op byte, p ident.Protocol) []byte {
	return obslog.AppendFrame(dst, []byte{
		wireMagic[0], wireMagic[1], wireMagic[2], wireMagic[3],
		wireVersion, op, byte(p),
	})
}

// decodeHeader validates a message header payload.
func decodeHeader(payload []byte) (op byte, p ident.Protocol, err error) {
	if len(payload) != 7 || [4]byte(payload[:4]) != wireMagic {
		return 0, 0, fmt.Errorf("distres: bad message header")
	}
	if payload[4] != wireVersion {
		return 0, 0, fmt.Errorf("distres: wire version %d, want %d", payload[4], wireVersion)
	}
	op, p = payload[5], ident.Protocol(payload[6])
	if op < opObs || op > opMerge {
		return 0, 0, fmt.Errorf("distres: unknown op %d", op)
	}
	if p > ident.SNMP {
		return 0, 0, fmt.Errorf("distres: unknown protocol %d", payload[6])
	}
	return op, p, nil
}

// appendEnd appends the end frame carrying the total record count.
func appendEnd(dst []byte, count int) []byte {
	var p [9]byte
	p[0] = kindEnd
	binary.LittleEndian.PutUint64(p[1:], uint64(count))
	return obslog.AppendFrame(dst, p[:])
}

// appendAddr encodes one address as addrlen | bytes.
func appendAddr(dst []byte, a netip.Addr) []byte {
	if a.Is4() {
		b := a.As4()
		dst = append(dst, 4)
		return append(dst, b[:]...)
	}
	b := a.As16()
	dst = append(dst, 16)
	return append(dst, b[:]...)
}

// decodeAddr decodes one address, returning it and the remaining bytes.
func decodeAddr(b []byte) (netip.Addr, []byte, error) {
	if len(b) < 1 {
		return netip.Addr{}, nil, fmt.Errorf("distres: truncated address")
	}
	n := int(b[0])
	b = b[1:]
	switch {
	case n == 4 && len(b) >= 4:
		return netip.AddrFrom4([4]byte(b[:4])), b[4:], nil
	case n == 16 && len(b) >= 16:
		return netip.AddrFrom16([16]byte(b[:16])), b[16:], nil
	}
	return netip.Addr{}, nil, fmt.Errorf("distres: bad address length %d", n)
}

// encodeObsRequest builds a complete opObs message: the observations are
// canonicalised (sorted, deduplicated) and streamed as chunked records. The
// input slice is reordered in place.
func encodeObsRequest(obs []alias.Observation) []byte {
	obs = canonObs(obs)
	out := appendHeader(nil, opObs, 0)
	payload := make([]byte, 0, frameTarget+256)
	payload = append(payload, kindObsBatch)
	for _, o := range obs {
		payload = append(payload, byte(o.ID.Proto))
		payload = appendAddr(payload, o.Addr)
		var dl [2]byte
		binary.LittleEndian.PutUint16(dl[:], uint16(len(o.ID.Digest)))
		payload = append(payload, dl[:]...)
		payload = append(payload, o.ID.Digest...)
		if len(payload) >= frameTarget {
			out = obslog.AppendFrame(out, payload)
			payload = payload[:1]
		}
	}
	if len(payload) > 1 {
		out = obslog.AppendFrame(out, payload)
	}
	return appendEnd(out, len(obs))
}

// decodeObsRecords parses one kindObsBatch payload, invoking fn per record.
func decodeObsRecords(b []byte, fn func(alias.Observation)) (int, error) {
	n := 0
	for len(b) > 0 {
		if len(b) < 1 {
			return n, fmt.Errorf("distres: truncated observation record")
		}
		p := ident.Protocol(b[0])
		if p > ident.SNMP {
			return n, fmt.Errorf("distres: unknown protocol %d in observation", b[0])
		}
		addr, rest, err := decodeAddr(b[1:])
		if err != nil {
			return n, err
		}
		if len(rest) < 2 {
			return n, fmt.Errorf("distres: truncated digest length")
		}
		dl := int(binary.LittleEndian.Uint16(rest))
		rest = rest[2:]
		if dl < 1 || len(rest) < dl {
			return n, fmt.Errorf("distres: bad digest length %d", dl)
		}
		fn(alias.Observation{Addr: addr, ID: ident.Identifier{Proto: p, Digest: string(rest[:dl])}})
		b = rest[dl:]
		n++
	}
	return n, nil
}

// encodeSetsRequest builds the opSets request for one protocol: header plus
// empty end frame — the worker's session holds the state.
func encodeSetsRequest(p ident.Protocol) []byte {
	return appendEnd(appendHeader(nil, opSets, p), 0)
}

// encodeSetStream builds a complete set-carrying message (an opSets response
// or an opMerge request/response): chunked set records plus the end count.
func encodeSetStream(op byte, p ident.Protocol, sets []alias.Set) []byte {
	out := appendHeader(nil, op, p)
	payload := make([]byte, 0, frameTarget+256)
	payload = append(payload, kindSetBatch)
	for _, s := range sets {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(s.Addrs)))
		payload = append(payload, n[:]...)
		for _, a := range s.Addrs {
			payload = appendAddr(payload, a)
		}
		if len(payload) >= frameTarget {
			out = obslog.AppendFrame(out, payload)
			payload = payload[:1]
		}
	}
	if len(payload) > 1 {
		out = obslog.AppendFrame(out, payload)
	}
	return appendEnd(out, len(sets))
}

// decodeSetRecords parses one kindSetBatch payload into dst.
func decodeSetRecords(b []byte, dst []alias.Set) ([]alias.Set, error) {
	for len(b) > 0 {
		if len(b) < 4 {
			return dst, fmt.Errorf("distres: truncated set record")
		}
		n := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		// The smallest encoded address takes 5 bytes, so checking the
		// declared size against the bytes left bounds the allocation below
		// by the input.
		if n < 1 || n > len(b)/5 {
			return dst, fmt.Errorf("distres: bad set size %d for %d remaining bytes", n, len(b))
		}
		addrs := make([]netip.Addr, 0, n)
		for i := 0; i < n; i++ {
			var (
				a   netip.Addr
				err error
			)
			a, b, err = decodeAddr(b)
			if err != nil {
				return dst, err
			}
			addrs = append(addrs, a)
		}
		dst = append(dst, alias.Set{Addrs: addrs})
	}
	return dst, nil
}

// encodeAck builds the opObs response: header plus the applied count.
func encodeAck(applied int) []byte {
	return appendEnd(appendHeader(nil, opObs, 0), applied)
}

// message is one decoded wire message.
type message struct {
	op      byte
	proto   ident.Protocol
	obs     []alias.Observation
	sets    []alias.Set
	records int
	count   int
}

// decodeMessage parses a complete message buffer, validating framing, CRCs,
// and the end-frame record count.
func decodeMessage(body []byte) (*message, error) {
	payload, size, ok := obslog.NextFrame(body)
	if !ok {
		return nil, fmt.Errorf("distres: missing or corrupt message header frame")
	}
	op, proto, err := decodeHeader(payload)
	if err != nil {
		return nil, err
	}
	m := &message{op: op, proto: proto}
	body = body[size:]
	records := 0
	ended := false
	for len(body) > 0 {
		payload, size, ok = obslog.NextFrame(body)
		if !ok {
			return nil, fmt.Errorf("distres: corrupt or truncated frame mid-message")
		}
		body = body[size:]
		if ended {
			return nil, fmt.Errorf("distres: frame after end marker")
		}
		switch payload[0] {
		case kindObsBatch:
			n, err := decodeObsRecords(payload[1:], func(o alias.Observation) {
				m.obs = append(m.obs, o)
			})
			if err != nil {
				return nil, err
			}
			records += n
		case kindSetBatch:
			before := len(m.sets)
			m.sets, err = decodeSetRecords(payload[1:], m.sets)
			if err != nil {
				return nil, err
			}
			records += len(m.sets) - before
		case kindEnd:
			if len(payload) != 9 {
				return nil, fmt.Errorf("distres: bad end frame")
			}
			m.count = int(binary.LittleEndian.Uint64(payload[1:]))
			ended = true
		default:
			return nil, fmt.Errorf("distres: unknown frame kind %#x", payload[0])
		}
	}
	if !ended {
		return nil, fmt.Errorf("distres: message missing end frame (stream cut mid-flight)")
	}
	m.records = records
	return m, nil
}

// checkCount enforces the end-frame accounting for record-carrying messages:
// the decoded record total must equal the count the sender framed last, so a
// whole content frame excised cleanly from the stream is still rejected.
// (opObs acks skip this — their count is the applied total, with no records.)
func (m *message) checkCount() error {
	if m.records != m.count {
		return fmt.Errorf("distres: end frame counts %d records, decoded %d", m.count, m.records)
	}
	return nil
}
