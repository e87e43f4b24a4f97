package giop

import "testing"

// Fuzz targets for the decoders that read untrusted wire input. Their seed
// corpora (marshalled messages plus truncated and hostile-count bodies)
// live under testdata/fuzz/<target>; run one with, for example,
//
//	go test -run '^$' -fuzz FuzzDecodeRequest -fuzztime 30s ./internal/giop/
//
// Every target demands that the decoder never panics, whatever the bytes.

// fuzzOrder maps the fuzzed flag onto a byte order.
func fuzzOrder(little bool) ByteOrder {
	if little {
		return LittleEndian
	}
	return BigEndian
}

// FuzzDecodeRequest decodes arbitrary request bodies. Whenever
// DecodeRequest accepts a body, the alloc-free pre-dispatch peeks must
// accept it too and agree with it on the fields admission control reads.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, little bool, body []byte) {
		order := fuzzOrder(little)
		var req Request
		if err := DecodeRequest(order, body, &req); err != nil {
			return
		}
		info, ok := PeekRequestInfo(order, body)
		if !ok {
			t.Fatalf("DecodeRequest accepted a body PeekRequestInfo rejects: %+v", req)
		}
		if info.RequestID != req.RequestID || info.ResponseExpected != req.ResponseExpected ||
			info.Priority != req.Priority || info.TenantID != req.TenantID || info.TenantTier != req.TenantTier {
			t.Fatalf("PeekRequestInfo %+v disagrees with DecodeRequest %+v", info, req)
		}
		prio, ok := PeekRequestPriority(order, body)
		if !ok || prio != req.Priority {
			t.Fatalf("PeekRequestPriority = (%d, %v), DecodeRequest priority %d", prio, ok, req.Priority)
		}
	})
}

// FuzzDecodeReply decodes arbitrary reply bodies.
func FuzzDecodeReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, little bool, body []byte) {
		var rep Reply
		_ = DecodeReply(fuzzOrder(little), body, &rep)
	})
}

// FuzzDecodeLocate decodes arbitrary bodies as both a LocateRequest and a
// LocateReply, forwarding body included.
func FuzzDecodeLocate(f *testing.F) {
	f.Fuzz(func(t *testing.T, little bool, body []byte) {
		order := fuzzOrder(little)
		var req LocateRequest
		_ = DecodeLocateRequest(order, body, &req)
		var rep LocateReply
		if err := DecodeLocateReply(order, body, &rep); err == nil && len(rep.Forward) > MaxForwardAddrs {
			t.Fatalf("forward list of %d addresses passed the %d bound", len(rep.Forward), MaxForwardAddrs)
		}
	})
}

// FuzzParseHeader parses arbitrary header bytes.
func FuzzParseHeader(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if h, err := ParseHeader(b); err == nil && h.Size > MaxMessageSize {
			t.Fatalf("header size %d passed the %d bound", h.Size, MaxMessageSize)
		}
	})
}
