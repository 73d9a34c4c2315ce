package gsi

import (
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Disk formats for credentials, so multi-process deployments (cmd/ntcpd,
// cmd/coordinator, cmd/repod) can share a trust domain the way NEESgrid
// sites shared a CA. A file holding a private key ends at mode 0600, whatever
// mode it had before, and is refused at load if its key does not match its
// certificate.

// credentialFile is the on-disk form of a Credential.
type credentialFile struct {
	Chain []*Certificate     `json:"chain"`
	Key   ed25519.PrivateKey `json:"key"`
}

// authorityFile is the on-disk form of an Authority.
type authorityFile struct {
	Name string             `json:"name"`
	Cert *Certificate       `json:"cert"`
	Key  ed25519.PrivateKey `json:"key"`
}

// SaveCredential writes a credential (including its private key) to path.
func SaveCredential(cred *Credential, path string) error {
	if cred == nil || cred.Leaf() == nil {
		return ErrBadChain
	}
	raw, err := json.MarshalIndent(&credentialFile{Chain: cred.Chain, Key: cred.Key}, "", "  ")
	if err != nil {
		return fmt.Errorf("gsi: marshal credential: %w", err)
	}
	return writePrivate(path, raw)
}

// LoadCredential reads a credential written by SaveCredential.
func LoadCredential(path string) (*Credential, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gsi: read credential: %w", err)
	}
	var cf credentialFile
	if err := json.Unmarshal(raw, &cf); err != nil {
		return nil, fmt.Errorf("gsi: parse credential: %w", err)
	}
	if len(cf.Chain) == 0 || cf.Chain[0] == nil || len(cf.Key) != ed25519.PrivateKeySize {
		return nil, ErrBadChain
	}
	if !cf.Chain[0].PublicKey.Equal(cf.Key.Public()) {
		return nil, fmt.Errorf("%w: %s: private key does not match the leaf certificate", ErrBadChain, path)
	}
	return &Credential{Chain: cf.Chain, Key: cf.Key}, nil
}

// SaveAuthority writes a CA (including its private key) to path.
func (a *Authority) Save(path string) error {
	raw, err := json.MarshalIndent(&authorityFile{Name: a.Name, Cert: a.Cert, Key: a.key}, "", "  ")
	if err != nil {
		return fmt.Errorf("gsi: marshal authority: %w", err)
	}
	return writePrivate(path, raw)
}

// LoadAuthority reads a CA written by Save.
func LoadAuthority(path string) (*Authority, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gsi: read authority: %w", err)
	}
	var af authorityFile
	if err := json.Unmarshal(raw, &af); err != nil {
		return nil, fmt.Errorf("gsi: parse authority: %w", err)
	}
	if af.Cert == nil || len(af.Key) != ed25519.PrivateKeySize {
		return nil, fmt.Errorf("gsi: malformed authority file")
	}
	if !af.Cert.PublicKey.Equal(af.Key.Public()) {
		return nil, fmt.Errorf("gsi: authority %s: private key does not match the CA certificate", path)
	}
	return &Authority{Name: af.Name, Cert: af.Cert, key: af.Key}, nil
}

// writePrivate writes raw to path, creating its directory. The file ends at
// mode 0600 even when it existed with a wider one, and the mode is set before
// any byte of the key is written.
func writePrivate(path string, raw []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("gsi: key dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err == nil {
		if err = f.Chmod(0o600); err == nil {
			_, err = f.Write(raw)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("gsi: write key file: %w", err)
	}
	return nil
}

// SaveCertificate writes a public certificate (no key) to path.
func SaveCertificate(cert *Certificate, path string) error {
	raw, err := json.MarshalIndent(cert, "", "  ")
	if err != nil {
		return fmt.Errorf("gsi: marshal certificate: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("gsi: certificate dir: %w", err)
	}
	return os.WriteFile(path, raw, 0o644)
}

// LoadCertificate reads a certificate written by SaveCertificate.
func LoadCertificate(path string) (*Certificate, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gsi: read certificate: %w", err)
	}
	var cert Certificate
	if err := json.Unmarshal(raw, &cert); err != nil {
		return nil, fmt.Errorf("gsi: parse certificate: %w", err)
	}
	return &cert, nil
}
