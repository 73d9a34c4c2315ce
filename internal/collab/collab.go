// Package collab emulates the CHEF-based collaboration environment MOST
// participants used (paper §3, Fig. 8): session login, an interactive chat
// (which "was crucial to user interaction"), a message board, an electronic
// notebook, presence, and the Data Viewer — near-real-time plots with VCR
// controls (play, pause, rewind, fast-forward) over the streamed structure
// response. Over 130 remote participants used this layer during the public
// MOST run; experiment E6 reproduces that load.
package collab

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"neesgrid/internal/nsds"
)

// Session is one logged-in participant.
type Session struct {
	Token    string
	User     string
	LoggedAt time.Time
}

// Message is one chat or board posting.
type Message struct {
	Seq  uint64    `json:"seq"`
	Room string    `json:"room"`
	User string    `json:"user"`
	Text string    `json:"text"`
	At   time.Time `json:"at"`
}

// Workspace is the collaboration state for one experiment (a CHEF "site").
type Workspace struct {
	Name string

	mu       sync.Mutex
	sessions map[string]*Session
	chatSeq  uint64
	chat     map[string][]Message // room → messages
	board    []Message
	notebook []Message
}

// NewWorkspace creates an empty workspace.
func NewWorkspace(name string) *Workspace {
	return &Workspace{
		Name:     name,
		sessions: make(map[string]*Session),
		chat:     make(map[string][]Message),
	}
}

// Login creates a session for a user and returns its token.
func (w *Workspace) Login(user string) (*Session, error) {
	if user == "" {
		return nil, fmt.Errorf("collab: user required")
	}
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return nil, fmt.Errorf("collab: token: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	s := &Session{Token: hex.EncodeToString(raw[:]), User: user, LoggedAt: time.Now()}
	w.sessions[s.Token] = s
	return s, nil
}

// Logout removes a session.
func (w *Workspace) Logout(token string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.sessions, token)
}

// auth resolves a token to a user.
func (w *Workspace) auth(token string) (*Session, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s, ok := w.sessions[token]
	if !ok {
		return nil, fmt.Errorf("collab: invalid session")
	}
	return s, nil
}

// Presence lists logged-in users, sorted.
func (w *Workspace) Presence() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	seen := make(map[string]bool)
	var out []string
	for _, s := range w.sessions {
		if !seen[s.User] {
			seen[s.User] = true
			out = append(out, s.User)
		}
	}
	sort.Strings(out)
	return out
}

// Chat posts a message to a room.
func (w *Workspace) Chat(token, room, text string) (*Message, error) {
	s, err := w.auth(token)
	if err != nil {
		return nil, err
	}
	if room == "" || text == "" {
		return nil, fmt.Errorf("collab: room and text required")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.chatSeq++
	m := Message{Seq: w.chatSeq, Room: room, User: s.User, Text: text, At: time.Now()}
	w.chat[room] = append(w.chat[room], m)
	return &m, nil
}

// ChatSince returns room messages with Seq > since.
func (w *Workspace) ChatSince(token, room string, since uint64) ([]Message, error) {
	if _, err := w.auth(token); err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	msgs := w.chat[room]
	i := sort.Search(len(msgs), func(i int) bool { return msgs[i].Seq > since })
	out := make([]Message, len(msgs)-i)
	copy(out, msgs[i:])
	return out, nil
}

// PostBoard adds a message-board posting.
func (w *Workspace) PostBoard(token, topic, text string) (*Message, error) {
	s, err := w.auth(token)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.chatSeq++
	m := Message{Seq: w.chatSeq, Room: topic, User: s.User, Text: text, At: time.Now()}
	w.board = append(w.board, m)
	return &m, nil
}

// Board returns all board postings.
func (w *Workspace) Board(token string) ([]Message, error) {
	if _, err := w.auth(token); err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Message(nil), w.board...), nil
}

// NotebookWrite appends an electronic-notebook entry.
func (w *Workspace) NotebookWrite(token, text string) (*Message, error) {
	s, err := w.auth(token)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.chatSeq++
	m := Message{Seq: w.chatSeq, User: s.User, Text: text, At: time.Now()}
	w.notebook = append(w.notebook, m)
	return &m, nil
}

// Notebook returns the notebook entries.
func (w *Workspace) Notebook(token string) ([]Message, error) {
	if _, err := w.auth(token); err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Message(nil), w.notebook...), nil
}

// ---------------------------------------------------------------------------
// Data Viewer with VCR controls
// ---------------------------------------------------------------------------

// Viewer records streamed samples per channel and serves time windows; VCR
// cursors replay the record.
type Viewer struct {
	mu      sync.Mutex
	series  map[string][]nsds.Sample
	maxKeep int
}

// NewViewer returns a viewer keeping up to maxKeep samples per channel
// (0 = unlimited).
func NewViewer(maxKeep int) *Viewer {
	return &Viewer{series: make(map[string][]nsds.Sample), maxKeep: maxKeep}
}

// Feed records samples.
func (v *Viewer) Feed(samples ...nsds.Sample) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, s := range samples {
		ss := append(v.series[s.Channel], s)
		if v.maxKeep > 0 && len(ss) > v.maxKeep {
			ss = ss[len(ss)-v.maxKeep:]
		}
		v.series[s.Channel] = ss
	}
}

// FeedFrom consumes a stream of batches — a hub subscription's or a
// client's Batches() — until it closes (run in a goroutine).
func (v *Viewer) FeedFrom(batches <-chan *nsds.Batch) {
	for b := range batches {
		v.Feed(b.Samples...)
	}
}

// Channels lists recorded channel names.
func (v *Viewer) Channels() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, 0, len(v.series))
	for c := range v.series {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Window returns the samples of a channel with from <= T < to.
func (v *Viewer) Window(channel string, from, to float64) []nsds.Sample {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []nsds.Sample
	for _, s := range v.series[channel] {
		if s.T >= from && s.T < to {
			out = append(out, s)
		}
	}
	return out
}

// XY returns paired samples of two channels at matching times — the
// hysteresis plot (force vs displacement) of Fig. 8.
func (v *Viewer) XY(xChannel, yChannel string) (xs, ys []float64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	yByT := make(map[float64]float64, len(v.series[yChannel]))
	for _, s := range v.series[yChannel] {
		yByT[s.T] = s.Value
	}
	for _, s := range v.series[xChannel] {
		if y, ok := yByT[s.T]; ok {
			xs = append(xs, s.Value)
			ys = append(ys, y)
		}
	}
	return xs, ys
}
