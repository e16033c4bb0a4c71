package cap

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestMintAndCheck(t *testing.T) {
	a := NewAuthority([]byte("k"))
	c := a.Mint(42, Read|Write)
	if !a.Check(c, Read) || !a.Check(c, Write) || !a.Check(c, Read|Write) {
		t.Error("valid capability rejected")
	}
	if a.Check(c, Grant) {
		t.Error("capability granted a right it does not carry")
	}
}

func TestForgeryRejected(t *testing.T) {
	a := NewAuthority([]byte("k"))
	c := a.Mint(42, Read)
	// Tampered resource.
	forged := c
	forged.Resource = 43
	if a.Check(forged, Read) {
		t.Error("resource-tampered capability accepted")
	}
	// Escalated rights.
	forged = c
	forged.Rights = Read | Write
	if a.Check(forged, Write) {
		t.Error("rights-escalated capability accepted")
	}
	// Zero-value capability.
	if a.Check(Capability{Resource: 42, Rights: Read}, Read) {
		t.Error("unsigned capability accepted")
	}
}

func TestAuthoritiesAreIndependent(t *testing.T) {
	a := NewAuthority([]byte("a"))
	b := NewAuthority([]byte("b"))
	c := a.Mint(1, Read)
	if b.Check(c, Read) {
		t.Error("capability crossed authority boundary")
	}
}

func TestDerive(t *testing.T) {
	a := NewAuthority(nil)
	parent := a.Mint(7, Read|Write|Grant)
	child, ok := a.Derive(parent, Read)
	if !ok {
		t.Fatal("derive failed")
	}
	if !a.Check(child, Read) {
		t.Error("derived capability invalid")
	}
	if a.Check(child, Write) {
		t.Error("derived capability carries un-derived right")
	}
	// Deriving beyond the parent's rights fails.
	if _, ok := a.Derive(a.Mint(7, Read|Grant), Write); ok {
		t.Error("derive escalated rights")
	}
	// Deriving from a non-Grant capability fails.
	if _, ok := a.Derive(a.Mint(7, Read|Write), Read); ok {
		t.Error("derive without Grant succeeded")
	}
	// Derived capabilities without Grant cannot be re-derived.
	if _, ok := a.Derive(child, Read); ok {
		t.Error("re-derive from non-Grant child succeeded")
	}
}

// Property: Check(Mint(r, rights), need) succeeds iff need ⊆ rights.
func TestQuickMintCheck(t *testing.T) {
	a := NewAuthority([]byte("q"))
	f := func(resource uint64, rights, need uint8) bool {
		r := Rights(rights) & (Read | Write | Grant)
		n := Rights(need) & (Read | Write | Grant)
		c := a.Mint(resource, r)
		return a.Check(c, n) == (r&n == n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a MAC from one (resource, rights) pair never validates another.
func TestQuickNoCrossValidation(t *testing.T) {
	a := NewAuthority([]byte("q"))
	f := func(r1, r2 uint64) bool {
		if r1 == r2 {
			return true
		}
		c := a.Mint(r1, Read)
		c.Resource = r2
		return !a.Check(c, Read)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every capability carries the first 16 bytes of
// HMAC-SHA256(key, resource || rights), computed here with a fresh
// hmac.New per signature. The authority's precomputed key schedule must
// leave every MAC byte-identical to that reference.
func TestQuickMACMatchesFreshHMAC(t *testing.T) {
	seed := []byte("q")
	a := NewAuthority(seed)
	key := sha256.Sum256(append([]byte("exokernel-cap-v1"), seed...))
	f := func(resource uint64, rights uint8) bool {
		mac := hmac.New(sha256.New, key[:])
		var msg [9]byte
		binary.LittleEndian.PutUint64(msg[:8], resource)
		msg[8] = rights
		mac.Write(msg[:])
		c := a.Mint(resource, Rights(rights))
		return bytes.Equal(c.mac[:], mac.Sum(nil)[:16])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Minting, checking and deriving sit on every secure-binding path
// (mapping a page, moving disk blocks, downloading an ASH); none of them
// may allocate.
func TestNoAllocations(t *testing.T) {
	a := NewAuthority([]byte("k"))
	parent := a.Mint(7, Read|Write|Grant)
	for name, f := range map[string]func(){
		"Mint":   func() { a.Mint(42, Read|Write) },
		"Check":  func() { a.Check(parent, Write) },
		"Derive": func() { a.Derive(parent, Read) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, n)
		}
	}
}
