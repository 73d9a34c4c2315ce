package ogsi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"neesgrid/internal/gsi"
	"neesgrid/internal/trace"
	"neesgrid/internal/wirejson/wiretest"
)

// canonicalRaw reports whether raw is what json.Marshal would re-emit for
// it: compact and HTML-escaped. The appenders copy raw values verbatim, so
// byte-equality with json.Marshal is only promised for such values — which
// is what every producer in the tree hands them.
func canonicalRaw(raw json.RawMessage) bool {
	if len(raw) == 0 {
		return true
	}
	out, err := json.Marshal(raw)
	return err == nil && bytes.Equal(out, raw)
}

func FuzzDecodeRequest(f *testing.F) {
	sent := time.Date(2026, 8, 5, 12, 30, 45, 123456789, time.UTC)
	sc := trace.SpanContext{TraceID: trace.TraceID{1, 2, 3}, SpanID: trace.SpanID{4, 5}}
	params := []byte(`{"name":"run/step-7/uiuc","actions":[{"control_point":"drift","displacements":[0.001]}]}`)
	items, _ := appendBatchItemsJSON(nil, []BatchOp{{Op: "execute", Params: map[string]string{"name": "a"}}, {Op: "propose", Params: nil}})
	for _, seed := range [][]byte{
		appendRequestJSON(nil, "ntcp", "propose", params, sent, sc, ""),
		appendRequestJSON(nil, "ntcp", "propose", params, sent, sc, "MDEyMzQ1Njc4OWFiY2RlZjAxMjM0NTY3ODlhYmNkZWYwMTIzNDU2Nzg5YWJjZGVm"),
		appendRequestJSON(nil, "ntcp", "execute", nil, sent.In(time.FixedZone("cdt", -5*3600)), trace.SpanContext{}, ""),
		appendRequestJSON(nil, "ntcp", "batch", items, sent, sc, ""),
		items,
		[]byte(`[]`), []byte(`null`), []byte(`[{"op":"x","params":null},]`),
		[]byte(`{"service":"a\"b","op":"x","params":1,"sent":"2026-08-05T12:30:45Z"}`),
		[]byte(`{"service":"a","op":"x","params": 1,"sent":"2026-08-05T12:30:45Z"}`),
		[]byte(`{"service":"a","op":"x","params":1,"sent":"2026-08-05 12:30:45"}`),
		[]byte(`{"service":"a","op":"x","params":1,"sent":"2026-08-05T12:30:45Z","trace":""}`),
		[]byte(`{"op":"x","service":"a","params":1,"sent":"2026-08-05T12:30:45Z"}`),
		[]byte("{\"service\":\"a\xff\",\"op\":\"x\",\"params\":1,\"sent\":\"2026-08-05T12:30:45Z\"}"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.AgreeWithEncodingJSON(t, data, new(request), new(request))
		wiretest.AgreeWithEncodingJSON(t, data, new(batchItems), new(batchItems))

		// Encoder side: whatever encoding/json decodes, the appender
		// re-encodes byte for byte as json.Marshal does.
		var req request
		if json.Unmarshal(data, &req) != nil || !canonicalRaw(req.Params) {
			return
		}
		var sc trace.SpanContext
		if req.Trace != "" {
			var err error
			if sc, err = trace.ParseTraceparent(req.Trace); err != nil || sc.Traceparent() != req.Trace {
				return // the appender only takes a well-formed span context
			}
		}
		want, err := json.Marshal(&req)
		if err != nil {
			return // a time encoding/json itself refuses to re-encode
		}
		if got := appendRequestJSON(nil, req.Service, req.Op, req.Params, req.Sent, sc, req.Offer); !bytes.Equal(got, want) {
			t.Fatalf("append %s\nmarshal %s", got, want)
		}
	})
}

func FuzzDecodeResponse(f *testing.F) {
	record := json.RawMessage(`{"name":"t1","state":"executed","results":[{"control_point":"drift","displacements":[0.001],"forces":[770]}]}`)
	tp := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
	for _, seed := range [][]byte{
		appendResponseJSON(nil, &response{OK: true, Result: record, Trace: tp}),
		appendResponseJSON(nil, &response{OK: true}),
		appendResponseJSON(nil, &response{OK: true, Result: record, Trace: tp, Accept: "AAAA"}),
		appendResponseJSON(nil, &response{OK: false, Code: CodeConflict, Error: "transaction is executing"}),
		appendResponseJSON(nil, &response{OK: false, Code: CodeDenied, Error: `authentication "failed"`}),
		appendResponseListJSON(nil, []*response{{OK: true, Result: record}, {OK: false, Code: CodeUnavailable, Error: "draining"}}),
		appendResponseListJSON(nil, []*response{{OK: true, Trace: tp}}),
		[]byte(`[]`), []byte(`null`), []byte(`[{"ok":true},]`), []byte(`{"ok":true,"result":null}`),
		[]byte(`{"ok":true,"code":""}`), []byte(`{"ok":true,"result":{"a": [1, 2]}}`), []byte(`{"ok":1}`),
		[]byte(`{"ok":true,"trace":"x","result":1}`), []byte(`{"ok":true}{"ok":false}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		wiretest.AgreeWithEncodingJSON(t, data, new(response), new(response))
		wiretest.AgreeWithEncodingJSON(t, data, new(batchResults), new(batchResults))

		var resp response
		if json.Unmarshal(data, &resp) == nil && canonicalRaw(resp.Result) {
			want, err := json.Marshal(&resp)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendResponseJSON(nil, &resp); !bytes.Equal(got, want) {
				t.Fatalf("append %s\nmarshal %s", got, want)
			}
		}
	})
}

// sessionScript reads what a container must answer to in, sent as the
// bytes after an upgrade: one reply per complete frame, and whether a
// malformed or oversize header ends the session (after one error reply of
// the status it returns). whole reports that in ends on a frame boundary.
func sessionScript(in []byte) (replies int, closes bool, last int, whole bool) {
	for len(in) > 0 {
		if len(in) < frameHeaderLen {
			return replies, false, 0, false
		}
		status, n := binary.BigEndian.Uint16(in), int(binary.BigEndian.Uint32(in[2:]))
		switch {
		case n > maxBodyBytes:
			return replies + 1, true, http.StatusRequestEntityTooLarge, false
		case status != 0:
			return replies + 1, true, http.StatusBadRequest, false
		case len(in)-frameHeaderLen < n:
			return replies, false, 0, false
		}
		in = in[frameHeaderLen+n:]
		replies++
	}
	return replies, false, 0, true
}

// FuzzContainerSession feeds arbitrary bytes to a container as what follows
// the upgrade, over net.Pipe. The oracle: no panic; each complete frame gets
// exactly one reply frame; the first malformed or oversize header gets one
// error reply and closes the session; what one session allocates stays under
// a ceiling no header can raise; and a session that took every frame still
// serves a real request after them.
func FuzzContainerSession(f *testing.F) {
	fab := newFabric(f, func(c *Container) { c.AddService(echoService()) })
	const ceiling = 8 << 20 // bytes, plus 64 per input byte
	f.Fuzz(func(t *testing.T, in []byte) {
		replies, closes, last, whole := sessionScript(in)
		input := append([]byte(nil), in...)
		if whole {
			env, err := gsi.AppendSignedEnvelope(nil, fab.client.Cred,
				appendRequestJSON(nil, "echo", "echo", []byte(`{"msg":"after"}`), time.Now(), noSpan, ""))
			if err != nil {
				t.Fatal(err)
			}
			input = append(input, append(appendFrameHeader(nil), env...)...)
			putFrameHeader(input[len(in):], 0)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv, cli := net.Pipe()
		defer cli.Close()
		_ = cli.SetDeadline(time.Now().Add(10 * time.Second))
		done := make(chan struct{})
		go func() {
			defer close(done)
			fab.container.serveSession(srv, bufio.NewReader(srv))
		}()
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			_, _ = cli.Write(input) // returns once the session has read it all, or has closed
		}()
		br := bufio.NewReader(cli)
		for i := 0; i < replies; i++ {
			status, reply, err := readFrame(br, nil)
			if err != nil {
				t.Fatalf("reply %d of %d: %v", i+1, replies, err)
			}
			if closes && i == replies-1 && status != last {
				t.Fatalf("bad header answered %d %q, want %d", status, reply, last)
			}
		}
		if closes {
			if _, _, err := readFrame(br, nil); err != io.EOF {
				t.Fatalf("session after a bad header: %v, want closed", err)
			}
		}
		if whole {
			status, reply, err := readFrame(br, nil)
			if err != nil || status != http.StatusOK {
				t.Fatalf("real request after %d frames: %d %q %v", replies, status, reply, err)
			}
			if resp := openReply(t, fab, reply); !resp.OK {
				t.Fatalf("real request after %d frames: %+v", replies, resp)
			}
		}
		<-wrote
		_ = cli.Close()
		<-done
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > ceiling+64*uint64(len(in)) {
			t.Fatalf("one session of %d input bytes allocated %d bytes", len(in), grew)
		}
	})
}

// scriptPeer is a container that answers a Transport from a script, whatever
// it is asked: the first connection after script is stored reads the upgrade
// request and gets those bytes, then the end of the stream; a later one gets
// only the end, as the script is spent. accepted counts its connections.
type scriptPeer struct {
	addr     string
	script   atomic.Pointer[[]byte]
	accepted atomic.Int64
}

func newScriptPeer(f *testing.F) *scriptPeer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = ln.Close() })
	p := &scriptPeer{addr: ln.Addr().String()}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.accepted.Add(1)
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					line, err := br.ReadSlice('\n')
					if err != nil {
						return
					}
					if len(bytes.TrimSpace(line)) == 0 {
						break
					}
				}
				if in := p.script.Swap(nil); in != nil {
					_, _ = conn.Write(*in)
				}
				_ = conn.(*net.TCPConn).CloseWrite()
				_, _ = io.Copy(io.Discard, br)
			}()
		}
	}()
	return p
}

// FuzzClientSession feeds arbitrary bytes to a Transport as what a container
// answers on a session: the answer to the upgrade, then reply frames. The
// oracle: no panic; a round trip that failed leaves no session behind to be
// lent again, so the next one dials; a reply holds no byte the peer did not
// send; and what the round trips allocate stays under a ceiling no header
// can raise.
func FuzzClientSession(f *testing.F) {
	frame := func(status int, payload string) string {
		b := append(appendFrameHeader(nil), payload...)
		putFrameHeader(b, status)
		return string(b)
	}
	claim := func(n uint32) string {
		h := make([]byte, frameHeaderLen)
		binary.BigEndian.PutUint16(h, http.StatusOK)
		binary.BigEndian.PutUint32(h[2:], n)
		return string(h)
	}
	for _, seed := range []string{
		switchingProtocols + frame(http.StatusOK, `{"ok":true}`) + frame(http.StatusOK, "") + frame(http.StatusServiceUnavailable, "busy"),
		switchingProtocols + frame(http.StatusOK, "one") + "\x00\xc8\x00",
		switchingProtocols + claim(maxBodyBytes) + "abc",
		switchingProtocols + claim(maxBodyBytes+1),
		"HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\n\r\n" + frame(http.StatusOK, "x"),
		"HTTP/1.1 404 Not Found\r\nContent-Length: 5\r\n\r\nnope!",
		"HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + sessionProtocol + "\r\nX-Pad: " + strings.Repeat("a", 8<<10) + "\r\n\r\n" + frame(http.StatusOK, "y"),
		switchingProtocols[:20],
		"",
	} {
		f.Add([]byte(seed))
	}
	peer := newScriptPeer(f)
	u, err := url.Parse("http://" + peer.addr + "/ogsi")
	if err != nil {
		f.Fatal(err)
	}
	const ceiling = 8 << 20 // bytes, plus 64 per input byte
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 64<<10 {
			return // a script past a few frames adds nothing the oracle reads
		}
		script := append([]byte(nil), in...)
		peer.script.Store(&script)
		tr := NewPinnedTransport(1)
		defer tr.CloseIdleConnections()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		failed := false
		for i := 0; i < 2; i++ {
			dials := peer.accepted.Load()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			resp, err := tr.RoundTrip(newPost(ctx, u, []byte(`{}`)))
			cancel()
			if failed && peer.accepted.Load() == dials {
				t.Fatalf("round trip %d went on the session of the failed one before it", i+1)
			}
			if failed = err != nil; failed {
				continue
			}
			body, _ := io.ReadAll(resp.Body)
			_ = resp.Body.Close()
			if len(body) > len(in) {
				t.Fatalf("round trip %d: a %d-byte reply from %d bytes sent", i+1, len(body), len(in))
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > ceiling+64*uint64(len(in)) {
			t.Fatalf("two round trips on %d input bytes allocated %d bytes", len(in), grew)
		}
	})
}
