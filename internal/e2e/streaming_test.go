package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestStreamingDaemonsEndToEnd runs the NSDS viewer path as the operator
// deploys it, one OS process per tier: nsdsd -demo publishes, a second
// nsdsd relays it over the binary wire, and chefd records the relayed
// stream for its data viewer. The test asserts that demo.disp samples reach
// chefd's /viewer/window, and that a subscribe line of the retired
// newline-JSON stream (no "format") is refused by the daemon with a close
// and zero bytes.
func TestStreamingDaemonsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns binaries")
	}
	bin := t.TempDir()
	buildBinaries(t, bin, "nsdsd", "chefd")
	start := func(name string, args ...string) {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			if t.Failed() {
				t.Logf("%s %v output:\n%s", name, args, out.String())
			}
		})
	}

	upstream, relay, chef := freePort(t), freePort(t), freePort(t)
	start("nsdsd", "-demo", "-demo-rate", "5ms", "-addr", upstream)
	waitListening(t, upstream)
	start("nsdsd", "-relay", upstream, "-addr", relay)
	waitListening(t, relay)
	start("chefd", "-addr", chef, "-nsds", relay)
	waitListening(t, chef)

	resp, err := http.Post("http://"+chef+"/login", "application/json", bytes.NewReader([]byte(`{"user":"e2e"}`)))
	if err != nil {
		t.Fatal(err)
	}
	var login struct{ Token string }
	err = json.NewDecoder(resp.Body).Decode(&login)
	resp.Body.Close()
	if err != nil || login.Token == "" {
		t.Fatalf("login: %v (token %q)", err, login.Token)
	}
	var window []struct {
		Channel string
		Seq     uint64
	}
	for deadline := time.Now().Add(10 * time.Second); len(window) < 10; time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("chefd's viewer holds %d demo.disp samples after 10 s, want 10", len(window))
		}
		req, _ := http.NewRequest(http.MethodGet, "http://"+chef+"/viewer/window?channel=demo.disp", nil)
		req.Header.Set("X-Session", login.Token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&window)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("viewer window: %v", err)
		}
	}
	for i, s := range window {
		if s.Channel != "demo.disp" || s.Seq == 0 || (i > 0 && s.Seq <= window[i-1].Seq) {
			t.Fatalf("viewer window sample %d = %+v, want demo.disp in sequence order", i, s)
		}
	}

	for _, addr := range []string{upstream, relay} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := fmt.Fprintln(conn, `{"channels":["demo.disp"],"buffer":64}`); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(conn)
		_ = conn.Close()
		if err != nil || len(got) != 0 {
			t.Fatalf("legacy JSON subscribe to %s: read %d bytes, %v; want a close with zero bytes", addr, len(got), err)
		}
	}
}

// TestNsdsdDrainsAnIdleViewer: nsdsd with no publisher and one idle binary
// subscriber exits 0 within a second of SIGTERM. The stream server used to
// return from its drain while the idle viewer's handler still waited for a
// batch, so the drain ran out its 2 s deadline and the process exited 1.
func TestNsdsdDrainsAnIdleViewer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns binaries")
	}
	bin := t.TempDir()
	buildBinaries(t, bin, "nsdsd")
	addr := freePort(t)
	cmd := exec.Command(filepath.Join(bin, "nsdsd"), "-addr", addr)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	defer func() {
		_ = cmd.Process.Kill()
		if t.Failed() {
			t.Logf("nsdsd output:\n%s", out.String())
		}
	}()
	waitListening(t, addr)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintln(conn, `{"channels":[],"buffer":16,"format":"binary"}`); err != nil {
		t.Fatal(err)
	}
	// The daemon subscribes as soon as it has read the line; nothing is
	// published, so the viewer stays idle.
	time.Sleep(200 * time.Millisecond)

	sent := time.Now()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("nsdsd exited after %v: %v", time.Since(sent).Round(time.Millisecond), err)
		}
		if took := time.Since(sent); took > time.Second {
			t.Fatalf("nsdsd took %v to drain one idle viewer", took.Round(time.Millisecond))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nsdsd did not exit within 10 s of SIGTERM")
	}
}
