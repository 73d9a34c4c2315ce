package gsi

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestCredentialSaveLoadRoundTrip(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	proxy, _ := cred.Delegate(time.Minute)
	path := filepath.Join(t.TempDir(), "keys", "alice.cred")
	if err := SaveCredential(proxy, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCredential(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Identity() != "/O=NEES/CN=alice" || len(loaded.Chain) != 2 {
		t.Fatalf("loaded = %+v", loaded)
	}
	// The loaded credential still signs verifiable envelopes.
	env, err := Sign(loaded, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca.Cert)
	if _, _, err := ts.Open(env, time.Now()); err != nil {
		t.Fatal(err)
	}
}

func TestAuthoritySaveLoadRoundTrip(t *testing.T) {
	ca := newTestCA(t)
	path := filepath.Join(t.TempDir(), "ca.json")
	if err := ca.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAuthority(path)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded CA can still issue credentials trusted under the
	// original CA certificate.
	cred, err := loaded.Issue("/O=NEES/CN=bob", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrustStore(ca.Cert)
	if _, err := ts.VerifyChain(cred.Chain, time.Now()); err != nil {
		t.Fatal(err)
	}
}

func TestCertificateSaveLoadRoundTrip(t *testing.T) {
	ca := newTestCA(t)
	path := filepath.Join(t.TempDir(), "ca.cert")
	if err := SaveCertificate(ca.Cert, path); err != nil {
		t.Fatal(err)
	}
	cert, err := LoadCertificate(path)
	if err != nil {
		t.Fatal(err)
	}
	cred, _ := ca.Issue("/O=NEES/CN=carol", time.Hour)
	ts := NewTrustStore(cert)
	if _, err := ts.VerifyChain(cred.Chain, time.Now()); err != nil {
		t.Fatal(err)
	}
}

func TestLoadErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadCredential(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing credential accepted")
	}
	if _, err := LoadAuthority(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing authority accepted")
	}
	if _, err := LoadCertificate(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing certificate accepted")
	}
	if err := SaveCredential(&Credential{}, filepath.Join(dir, "x")); err == nil {
		t.Fatal("empty credential accepted")
	}
}

// TestKeyFilesEndPrivate: re-issuing over a key file that exists with a wider
// mode leaves it at 0600, for a credential and for a CA alike.
func TestKeyFilesEndPrivate(t *testing.T) {
	ca := newTestCA(t)
	cred, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	dir := t.TempDir()
	for name, save := range map[string]func(string) error{
		"alice.cred": func(path string) error { return SaveCredential(cred, path) },
		"ca.json":    ca.Save,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chmod(path, 0o644); err != nil { // whatever the umask
			t.Fatal(err)
		}
		if err := save(path); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if mode := info.Mode().Perm(); mode != 0o600 {
			t.Errorf("%s: mode %o after save over a 0644 file, want 600", name, mode)
		}
	}
	if _, err := LoadCredential(filepath.Join(dir, "alice.cred")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAuthority(filepath.Join(dir, "ca.json")); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRefusesMismatchedKey: a key file whose private key is not the one
// its certificate names is refused at load, with the path in the error,
// rather than loading and failing the first handshake at the remote end.
func TestLoadRefusesMismatchedKey(t *testing.T) {
	ca := newTestCA(t)
	alice, _ := ca.Issue("/O=NEES/CN=alice", time.Hour)
	bob, _ := ca.Issue("/O=NEES/CN=bob", time.Hour)
	other := newTestCA(t)
	dir := t.TempDir()

	credPath := filepath.Join(dir, "alice.cred")
	if err := SaveCredential(&Credential{Chain: alice.Chain, Key: bob.Key}, credPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCredential(credPath); !errors.Is(err, ErrBadChain) || !strings.Contains(err.Error(), credPath) {
		t.Fatalf("credential with another's key: %v", err)
	}

	caPath := filepath.Join(dir, "ca.json")
	if err := (&Authority{Name: ca.Name, Cert: ca.Cert, key: other.key}).Save(caPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAuthority(caPath); err == nil || !strings.Contains(err.Error(), caPath) {
		t.Fatalf("authority with another CA's key: %v", err)
	}
}
