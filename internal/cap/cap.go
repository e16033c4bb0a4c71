// Package cap implements self-authenticating capabilities, after Chaum and
// Fabry [12], which the prototype exokernel uses for secure bindings to
// physical memory: "when a library operating system allocates a physical
// memory page, the exokernel creates a secure binding for that page by
// recording the owner and the read and write capabilities specified by the
// library operating system."
//
// A capability is an unforgeable token over (resource, rights): the kernel
// mints it with a keyed MAC and later validates presented tokens without a
// lookup table. Applications may pass capabilities to each other to grant
// access — the kernel does not track or care who holds one.
package cap

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// Rights is a bitmask of access rights carried by a capability.
type Rights uint8

// Access rights.
const (
	Read Rights = 1 << iota
	Write
	Grant // may mint derived capabilities with fewer rights
)

// Capability is a self-authenticating token: resource identity, rights, and
// a MAC binding them to the minting authority's key.
type Capability struct {
	Resource uint64
	Rights   Rights
	mac      [16]byte
}

// Authority mints and validates capabilities. The kernel owns one; its key
// never leaves it.
//
// The authority keeps one keyed HMAC-SHA256 whose inner and outer key-pad
// states are computed once, when the key is set (FIPS 198-1 §6 allows the
// precomputation; crypto/hmac does it on Reset). Signing restores those
// states and writes into fixed buffers, so a Mint or Check costs two
// SHA-256 compressions and allocates nothing. The MACs are those of a
// fresh hmac.New per signature, byte for byte.
//
// An Authority is not safe for concurrent use: signing mutates the shared
// HMAC state. Each kernel owns its own and calls it from one goroutine.
type Authority struct {
	mac hash.Hash
	msg [9]byte           // resource (little-endian) || rights
	sum [sha256.Size]byte // the full HMAC; a capability keeps the first 16 bytes
}

// NewAuthority creates an authority from seed material. A zero seed is
// valid (deterministic tests); real kernels pass entropy.
func NewAuthority(seed []byte) *Authority {
	key := sha256.Sum256(append([]byte("exokernel-cap-v1"), seed...))
	a := &Authority{mac: hmac.New(sha256.New, key[:])}
	a.mac.Reset() // precompute the key-pad states
	return a
}

func (a *Authority) sign(resource uint64, rights Rights) [16]byte {
	binary.LittleEndian.PutUint64(a.msg[:8], resource)
	a.msg[8] = byte(rights)
	a.mac.Reset()
	a.mac.Write(a.msg[:])
	a.mac.Sum(a.sum[:0])
	return [16]byte(a.sum[:16])
}

// Mint creates a capability for a resource with the given rights.
func (a *Authority) Mint(resource uint64, rights Rights) Capability {
	return Capability{Resource: resource, Rights: rights, mac: a.sign(resource, rights)}
}

// Check validates a presented capability: it must be authentic and carry
// every right in need.
func (a *Authority) Check(c Capability, need Rights) bool {
	if c.Rights&need != need {
		return false
	}
	want := a.sign(c.Resource, c.Rights)
	return hmac.Equal(want[:], c.mac[:])
}

// Derive mints a capability with a subset of c's rights. It fails unless c
// is authentic and carries Grant.
func (a *Authority) Derive(c Capability, rights Rights) (Capability, bool) {
	if !a.Check(c, Grant) {
		return Capability{}, false
	}
	if rights&c.Rights != rights {
		return Capability{}, false
	}
	return a.Mint(c.Resource, rights), true
}
