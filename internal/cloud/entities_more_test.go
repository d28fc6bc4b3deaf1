package cloud

import (
	"crypto/rand"
	"errors"
	"testing"

	"maacs/internal/core"
	"maacs/internal/pairing"
)

func TestAddUserDuplicateRejected(t *testing.T) {
	env := NewEnv(core.NewSystem(pairing.Test()), rand.Reader)
	if _, err := env.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	if _, err := env.AddUser("u"); !errors.Is(err, core.ErrDuplicateID) {
		t.Fatalf("got %v, want ErrDuplicateID", err)
	}
}

func TestAddAuthorityDuplicateRejected(t *testing.T) {
	env := NewEnv(core.NewSystem(pairing.Test()), rand.Reader)
	if _, err := env.AddAuthority("a", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := env.AddAuthority("a", []string{"y"}); !errors.Is(err, core.ErrDuplicateID) {
		t.Fatalf("got %v, want ErrDuplicateID", err)
	}
}

func TestAuthorityLookup(t *testing.T) {
	env := NewEnv(core.NewSystem(pairing.Test()), rand.Reader)
	if _, ok := env.Authority("ghost"); ok {
		t.Fatal("unknown authority found")
	}
	if _, err := env.AddAuthority("a", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	if a, ok := env.Authority("a"); !ok || a.AA.AID() != "a" {
		t.Fatal("authority lookup broken")
	}
}

func TestGrantUnknownAttributeSurfacesError(t *testing.T) {
	env := NewEnv(core.NewSystem(pairing.Test()), rand.Reader)
	a, err := env.AddAuthority("a", []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.AddOwner("o"); err != nil {
		t.Fatal(err)
	}
	u, err := env.AddUser("u")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.GrantAttributes(u, []string{"ghost"}); !errors.Is(err, core.ErrUnknownAttribute) {
		t.Fatalf("got %v, want ErrUnknownAttribute", err)
	}
}

func TestUploadWithUnknownPolicyAttributeFails(t *testing.T) {
	env := NewEnv(core.NewSystem(pairing.Test()), rand.Reader)
	if _, err := env.AddAuthority("a", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	owner, err := env.AddOwner("o")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := owner.Upload("r", []UploadComponent{
		{Label: "c", Data: []byte("v"), Policy: "a:ghost"},
	}); !errors.Is(err, core.ErrUnknownAttribute) {
		t.Fatalf("got %v, want ErrUnknownAttribute", err)
	}
	// A failed upload must not leave a record behind.
	if n := recordCount(env.Server); n != 0 {
		t.Fatalf("partial upload left %d records", n)
	}
}

func TestHolderAttrsReflectsGrantsAndRevocations(t *testing.T) {
	env := NewEnv(core.NewSystem(pairing.Test()), rand.Reader)
	a, err := env.AddAuthority("a", []string{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.AddOwner("o"); err != nil {
		t.Fatal(err)
	}
	u, err := env.AddUser("u")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.GrantAttributes(u, []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if got := a.HolderAttrs("u"); len(got) != 2 {
		t.Fatalf("holder attrs %v", got)
	}
	if _, err := a.RevokeAttribute("u", "x"); err != nil {
		t.Fatal(err)
	}
	got := a.HolderAttrs("u")
	if len(got) != 1 || got[0] != "y" {
		t.Fatalf("holder attrs after revoke %v", got)
	}
}
