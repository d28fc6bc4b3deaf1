// Fileshare — the networked deployment: a cloud server running behind
// net/rpc on loopback, an owner uploading over the wire, and a user
// downloading and decrypting client-side. All secret material stays on the
// clients; only ciphertexts cross the network, matching the paper's trust
// model where the server is honest-but-curious.
//
// This example drives the scheme-level API (internal packages re-exported
// through the cloud layer) rather than the Environment facade, to show what
// a real client implementation looks like.
package main

import (
	"crypto/rand"
	"fmt"
	"log"

	"maacs/internal/cloud"
	"maacs/internal/core"
	"maacs/internal/hybrid"
	"maacs/internal/pairing"
)

func main() {
	if err := runExample(); err != nil {
		log.Fatal(err)
	}
}

func runExample() error {
	sys := core.NewSystem(pairing.Test()) // demo curve; use pairing.Default() in production

	// --- server side: storage only, no keys ---
	server := cloud.NewServer(sys, nil)
	listener, addr, err := cloud.ServeRPC(sys, server, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer listener.Close()
	fmt.Println("cloud server listening on", addr)

	// --- trusted parties (run anywhere but the server) ---
	ca := core.NewCA(sys)
	if err := ca.RegisterAA("corp"); err != nil {
		return err
	}
	aa, err := core.NewAA(sys, "corp", []string{"engineering", "finance"}, rand.Reader)
	if err != nil {
		return err
	}
	owner, err := core.NewOwner(sys, "filer", rand.Reader)
	if err != nil {
		return err
	}
	owner.InstallPublicKeys(aa.PublicKeys())

	alicePK, err := ca.RegisterUser("alice", rand.Reader)
	if err != nil {
		return err
	}
	aliceSK, err := aa.KeyGen(alicePK, owner.SecretKeyForAAs(), []string{"engineering"})
	if err != nil {
		return err
	}

	// --- owner client: seal + encrypt + upload over RPC ---
	remote, err := cloud.DialServer(sys, addr)
	if err != nil {
		return err
	}
	defer remote.Close()

	contentKey, err := hybrid.NewContentKey(sys.Params, rand.Reader)
	if err != nil {
		return err
	}
	sealed, err := contentKey.Seal([]byte("design.pdf: v2 architecture"), rand.Reader)
	if err != nil {
		return err
	}
	ct, err := owner.Encrypt(contentKey.Element, "corp:engineering", rand.Reader)
	if err != nil {
		return err
	}
	if err := remote.Store(&cloud.Record{
		ID:      "design.pdf",
		OwnerID: owner.ID(),
		Components: []cloud.StoredComponent{
			{Label: "body", CT: ct, Sealed: sealed},
		},
	}); err != nil {
		return err
	}
	fmt.Println("owner uploaded design.pdf (ciphertext + sealed payload)")

	// --- user client: download over RPC + decrypt locally ---
	comp, err := remote.FetchComponentAs("design.pdf", "body", "alice")
	if err != nil {
		return err
	}
	element, err := core.Decrypt(sys, comp.CT, alicePK, map[string]*core.SecretKey{"corp": aliceSK})
	if err != nil {
		return err
	}
	key := &hybrid.ContentKey{Element: element}
	plaintext, err := key.Open(comp.Sealed)
	if err != nil {
		return err
	}
	fmt.Printf("alice downloaded and decrypted: %s\n", plaintext)

	// A finance-only user cannot open it, even with the raw ciphertext.
	bobPK, err := ca.RegisterUser("bob", rand.Reader)
	if err != nil {
		return err
	}
	bobSK, err := aa.KeyGen(bobPK, owner.SecretKeyForAAs(), []string{"finance"})
	if err != nil {
		return err
	}
	if _, err := core.Decrypt(sys, comp.CT, bobPK, map[string]*core.SecretKey{"corp": bobSK}); err != nil {
		fmt.Println("bob (finance) denied:", err)
	}
	return nil
}
