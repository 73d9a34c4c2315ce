package gridftp

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// Property: any file of any size survives a striped put+get round trip
// bit-for-bit, across varying block sizes and stream counts — through a
// client made for the transfer, and through one client that eight goroutines
// share (its idle sessions passing between them; run under -race).
func TestRoundTripProperty(t *testing.T) {
	root := t.TempDir()
	srv, err := NewServer(root)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var iteration atomic.Int64
	// property returns the quick.Check function of one goroutine; clientFor
	// supplies the client for a block size.
	property := func(scratch string, clientFor func(block int) *Client) func(int64, uint16, uint8, uint8) bool {
		return func(seed int64, sizeRaw uint16, streamsRaw, blockRaw uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			size := int(sizeRaw) // 0..65535 bytes
			streams := 1 + int(streamsRaw)%6
			cl := clientFor(512 * (1 + int(blockRaw)%8))

			data := make([]byte, size)
			rng.Read(data)
			src := filepath.Join(scratch, "src")
			if err := os.WriteFile(src, data, 0o644); err != nil {
				return false
			}
			// Unique remote path per iteration (server keeps finished files).
			remote := fmt.Sprintf("prop/f/%d/x", iteration.Add(1))
			if err := cl.Put(src, remote, streams); err != nil {
				t.Logf("put(size=%d streams=%d block=%d): %v", size, streams, cl.BlockSize, err)
				return false
			}
			dst := filepath.Join(scratch, "dst")
			if err := cl.Get(remote, dst, streams); err != nil {
				t.Logf("get: %v", err)
				return false
			}
			got, err := os.ReadFile(dst)
			if err != nil {
				return false
			}
			return bytes.Equal(got, data)
		}
	}

	t.Run("a client per transfer", func(t *testing.T) {
		f := property(t.TempDir(), func(block int) *Client {
			cl := &Client{Addr: addr, BlockSize: block}
			t.Cleanup(cl.Close)
			return cl
		})
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("8 goroutines share one client", func(t *testing.T) {
		shared := &Client{Addr: addr, BlockSize: 1024}
		defer shared.Close()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				f := property(t.TempDir(), func(int) *Client { return shared })
				cfg := &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(int64(g)))}
				if err := quick.Check(f, cfg); err != nil {
					t.Error(err)
				}
			}(g)
		}
		wg.Wait()
	})
}
