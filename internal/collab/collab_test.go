package collab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"neesgrid/internal/nsds"
)

func TestLoginAndPresence(t *testing.T) {
	ws := NewWorkspace("most")
	s1, err := ws.Login("alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Login(""); err == nil {
		t.Fatal("empty user accepted")
	}
	_, _ = ws.Login("bob")
	_, _ = ws.Login("alice") // second session, same user
	p := ws.Presence()
	if len(p) != 2 || p[0] != "alice" || p[1] != "bob" {
		t.Fatalf("presence = %v", p)
	}
	ws.Logout(s1.Token)
	if _, err := ws.Chat(s1.Token, "main", "hi"); err == nil {
		t.Fatal("logged-out session still valid")
	}
}

func TestChatOrderingAndSince(t *testing.T) {
	ws := NewWorkspace("most")
	s, _ := ws.Login("alice")
	for i := 0; i < 5; i++ {
		if _, err := ws.Chat(s.Token, "main", fmt.Sprintf("msg %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	all, err := ws.ChatSince(s.Token, "main", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 || all[0].Text != "msg 0" {
		t.Fatalf("chat = %v", all)
	}
	tail, _ := ws.ChatSince(s.Token, "main", all[2].Seq)
	if len(tail) != 2 || tail[0].Text != "msg 3" {
		t.Fatalf("since = %v", tail)
	}
	// Unknown room is empty, not an error.
	none, err := ws.ChatSince(s.Token, "empty", 0)
	if err != nil || len(none) != 0 {
		t.Fatalf("empty room = %v, %v", none, err)
	}
	if _, err := ws.Chat(s.Token, "", "x"); err == nil {
		t.Fatal("empty room accepted")
	}
}

func TestBoardAndNotebook(t *testing.T) {
	ws := NewWorkspace("most")
	s, _ := ws.Login("alice")
	if _, err := ws.PostBoard(s.Token, "status", "dry run complete"); err != nil {
		t.Fatal(err)
	}
	board, _ := ws.Board(s.Token)
	if len(board) != 1 || board[0].Room != "status" {
		t.Fatalf("board = %v", board)
	}
	if _, err := ws.NotebookWrite(s.Token, "step 800: drift 12mm"); err != nil {
		t.Fatal(err)
	}
	nb, _ := ws.Notebook(s.Token)
	if len(nb) != 1 || nb[0].User != "alice" {
		t.Fatalf("notebook = %v", nb)
	}
	if _, err := ws.Board("bogus"); err == nil {
		t.Fatal("bad token accepted")
	}
}

func TestCollab130Participants(t *testing.T) {
	// E6: 130 concurrent remote participants logging in, chatting, and
	// reading — the §3.4 participation result.
	ws := NewWorkspace("most")
	const participants = 130
	var wg sync.WaitGroup
	errs := make(chan error, participants)
	for i := 0; i < participants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := ws.Login(fmt.Sprintf("user-%03d", i))
			if err != nil {
				errs <- err
				return
			}
			if _, err := ws.Chat(s.Token, "main", "hello from "+s.User); err != nil {
				errs <- err
				return
			}
			if _, err := ws.ChatSince(s.Token, "main", 0); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(ws.Presence()); got != participants {
		t.Fatalf("presence = %d, want %d", got, participants)
	}
	msgs, _ := ws.ChatSince(mustLogin(t, ws, "observer").Token, "main", 0)
	if len(msgs) != participants {
		t.Fatalf("chat messages = %d", len(msgs))
	}
	// Sequence numbers are strictly increasing.
	for i := 1; i < len(msgs); i++ {
		if msgs[i].Seq <= msgs[i-1].Seq {
			t.Fatal("chat sequence not monotonic")
		}
	}
}

func mustLogin(t *testing.T, ws *Workspace, user string) *Session {
	t.Helper()
	s, err := ws.Login(user)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestViewerWindowAndXY(t *testing.T) {
	v := NewViewer(0)
	for i := 0; i < 10; i++ {
		tm := float64(i) * 0.01
		v.Feed(nsds.Sample{Channel: "disp", T: tm, Value: float64(i)})
		v.Feed(nsds.Sample{Channel: "force", T: tm, Value: float64(i) * 10})
	}
	win := v.Window("disp", 0.02, 0.05)
	if len(win) != 3 || win[0].Value != 2 {
		t.Fatalf("window = %v", win)
	}
	xs, ys := v.XY("disp", "force")
	if len(xs) != 10 || ys[3] != 30 || xs[3] != 3 {
		t.Fatalf("xy = %v, %v", xs, ys)
	}
	if got := v.Channels(); len(got) != 2 || got[0] != "disp" {
		t.Fatalf("channels = %v", got)
	}
}

func TestViewerRetentionCap(t *testing.T) {
	v := NewViewer(5)
	for i := 0; i < 20; i++ {
		v.Feed(nsds.Sample{Channel: "c", T: float64(i), Value: float64(i)})
	}
	win := v.Window("c", 0, 1e9)
	if len(win) != 5 || win[0].Value != 15 {
		t.Fatalf("capped window = %v", win)
	}
}

// TestCursorVCRSemantics: a remote participant's VCR (play, pause, rewind,
// seek on the clickable timeline, fast-forward to the live edge) is a
// position in time that pages through chefd's /viewer/window.
func TestCursorVCRSemantics(t *testing.T) {
	ws := NewWorkspace("most")
	v := NewViewer(0)
	for i := 0; i < 6; i++ {
		v.Feed(nsds.Sample{Channel: "c", T: float64(i) * 0.01, Value: float64(i)})
	}
	ts := httptest.NewServer(NewHandler(ws, v))
	defer ts.Close()
	sess, err := ws.Login("viewer")
	if err != nil {
		t.Fatal(err)
	}
	// window fetches the samples at or after from (an open-ended window).
	window := func(from float64) []nsds.Sample {
		t.Helper()
		req, _ := http.NewRequest("GET", fmt.Sprintf("%s/viewer/window?channel=c&from=%g", ts.URL, from), nil)
		req.Header.Set("X-Session", sess.Token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var win []nsds.Sample
		if err := json.NewDecoder(resp.Body).Decode(&win); err != nil {
			t.Fatal(err)
		}
		return win
	}
	var pos float64 // the next sample's earliest time
	playing := false
	next := func() (nsds.Sample, bool) {
		if !playing {
			return nsds.Sample{}, false
		}
		win := window(pos)
		if len(win) == 0 {
			return nsds.Sample{}, false
		}
		pos = math.Nextafter(win[0].T, math.Inf(1))
		return win[0], true
	}

	if _, ok := next(); ok {
		t.Fatal("paused cursor yielded a sample")
	}
	playing = true
	s, ok := next()
	if !ok || s.Value != 0 {
		t.Fatalf("first = %+v", s)
	}
	_, _ = next()
	playing = false
	if _, ok := next(); ok {
		t.Fatal("pause ignored")
	}
	playing = true
	if s, _ = next(); s.Value != 2 {
		t.Fatalf("resume at %g, want 2", s.Value)
	}
	pos = 0 // rewind
	if s, _ = next(); s.Value != 0 {
		t.Fatalf("rewind at %g", s.Value)
	}
	pos = 0.04 // seek
	if s, _ = next(); s.Value != 4 {
		t.Fatalf("seek at %g, want 4", s.Value)
	}
	win := window(pos) // fast-forward: past the last sample there is
	pos = math.Nextafter(win[len(win)-1].T, math.Inf(1))
	if _, ok := next(); ok {
		t.Fatal("fast-forward should reach the live edge")
	}
	// New live data arrives: playback resumes.
	v.Feed(nsds.Sample{Channel: "c", T: 0.06, Value: 6})
	if s, ok = next(); !ok || s.Value != 6 {
		t.Fatalf("live edge sample = %+v, %v", s, ok)
	}
}

func TestViewerFeedFromSubscription(t *testing.T) {
	hub := nsds.NewHub()
	sub, _ := hub.SubscribeBatches(16, false)
	v := NewViewer(0)
	done := make(chan struct{})
	go func() { v.FeedFrom(sub.Batches()); close(done) }()
	hub.PublishBatch([]nsds.Sample{{Channel: "c", T: 0.01, Value: 1}})
	hub.Close()
	<-done
	if len(v.Window("c", 0, 1)) != 1 {
		t.Fatal("subscription feed lost sample")
	}
}

func TestHTTPFacade(t *testing.T) {
	ws := NewWorkspace("most")
	v := NewViewer(0)
	v.Feed(nsds.Sample{Channel: "disp", T: 0.01, Value: 1.5})
	ts := httptest.NewServer(NewHandler(ws, v))
	defer ts.Close()

	// Login.
	resp, err := http.Post(ts.URL+"/login", "application/json", bytes.NewBufferString(`{"user":"alice"}`))
	if err != nil {
		t.Fatal(err)
	}
	var login map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&login)
	_ = resp.Body.Close()
	token := login["token"]
	if token == "" {
		t.Fatal("no token")
	}

	do := func(method, path, body string) (*http.Response, error) {
		req, _ := http.NewRequest(method, ts.URL+path, bytes.NewBufferString(body))
		req.Header.Set("X-Session", token)
		return http.DefaultClient.Do(req)
	}
	// Chat post + get.
	resp, err = do("POST", "/chat", `{"room":"main","text":"hello"}`)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("chat post: %v %v", resp.Status, err)
	}
	_ = resp.Body.Close()
	resp, _ = do("GET", "/chat?room=main&since=0", "")
	var msgs []Message
	_ = json.NewDecoder(resp.Body).Decode(&msgs)
	_ = resp.Body.Close()
	if len(msgs) != 1 || msgs[0].Text != "hello" {
		t.Fatalf("chat get = %v", msgs)
	}
	// Unauthorized chat.
	req, _ := http.NewRequest("POST", ts.URL+"/chat", bytes.NewBufferString(`{"room":"main","text":"x"}`))
	resp, _ = http.DefaultClient.Do(req)
	if resp.StatusCode != 401 {
		t.Fatalf("unauthorized chat status = %d", resp.StatusCode)
	}
	_ = resp.Body.Close()
	// Viewer window.
	resp, _ = do("GET", "/viewer/window?channel=disp&from=0&to=1", "")
	var win []nsds.Sample
	_ = json.NewDecoder(resp.Body).Decode(&win)
	_ = resp.Body.Close()
	if len(win) != 1 || win[0].Value != 1.5 {
		t.Fatalf("viewer window = %v", win)
	}
	// Presence.
	resp, _ = do("GET", "/presence", "")
	var users []string
	_ = json.NewDecoder(resp.Body).Decode(&users)
	_ = resp.Body.Close()
	if len(users) != 1 || users[0] != "alice" {
		t.Fatalf("presence = %v", users)
	}
	// Board + notebook round trip.
	resp, _ = do("POST", "/board", `{"topic":"status","text":"running"}`)
	_ = resp.Body.Close()
	resp, _ = do("GET", "/board", "")
	var board []Message
	_ = json.NewDecoder(resp.Body).Decode(&board)
	_ = resp.Body.Close()
	if len(board) != 1 {
		t.Fatalf("board = %v", board)
	}
	resp, _ = do("POST", "/notebook", `{"text":"note"}`)
	_ = resp.Body.Close()
	resp, _ = do("GET", "/notebook", "")
	var nb []Message
	_ = json.NewDecoder(resp.Body).Decode(&nb)
	_ = resp.Body.Close()
	if len(nb) != 1 {
		t.Fatalf("notebook = %v", nb)
	}
	// Unknown path.
	resp, _ = do("GET", "/nope", "")
	if resp.StatusCode != 404 {
		t.Fatalf("unknown path = %d", resp.StatusCode)
	}
	_ = resp.Body.Close()
}
