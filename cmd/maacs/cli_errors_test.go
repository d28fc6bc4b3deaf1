package main

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"maacs/internal/pairing"
)

func TestCLIDecryptUnknownUser(t *testing.T) {
	dir := setupCLI(t)
	plain := filepath.Join(dir, "p.txt")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	enc := filepath.Join(dir, "e.enc")
	cli(t, dir, "encrypt", "-owner", "hospital", "-policy", "med:doctor", "-in", plain, "-out", enc)
	cliErr(t, dir, "decrypt", "-uid", "ghost", "-in", enc)
}

func TestCLIKeygenUnknownParties(t *testing.T) {
	dir := setupCLI(t)
	cliErr(t, dir, "keygen", "-uid", "ghost", "-aid", "med", "-owner", "hospital", "-attrs", "doctor")
	cliErr(t, dir, "keygen", "-uid", "alice", "-aid", "ghost", "-owner", "hospital", "-attrs", "doctor")
	cliErr(t, dir, "keygen", "-uid", "alice", "-aid", "med", "-owner", "ghost", "-attrs", "doctor")
	cliErr(t, dir, "keygen", "-uid", "alice", "-aid", "med", "-owner", "hospital", "-attrs", "wizard")
}

func TestCLIEncryptValidation(t *testing.T) {
	dir := setupCLI(t)
	// Missing required flags.
	cliErr(t, dir, "encrypt", "-owner", "hospital")
	// Unknown policy attribute.
	plain := filepath.Join(dir, "p.txt")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cliErr(t, dir, "encrypt", "-owner", "hospital", "-policy", "med:wizard", "-in", plain,
		"-out", filepath.Join(dir, "x.enc"))
	// Missing input file.
	cliErr(t, dir, "encrypt", "-owner", "hospital", "-policy", "med:doctor",
		"-in", filepath.Join(dir, "nope.txt"), "-out", filepath.Join(dir, "x.enc"))
}

func TestCLIInspectRejectsNonContainer(t *testing.T) {
	dir := setupCLI(t)
	junk := filepath.Join(dir, "junk.enc")
	if err := os.WriteFile(junk, []byte("not a container"), 0o644); err != nil {
		t.Fatal(err)
	}
	cliErr(t, dir, "inspect", "-in", junk)
}

func TestCLIRevokeValidation(t *testing.T) {
	dir := setupCLI(t)
	cliErr(t, dir, "revoke", "-aid", "med", "-uid", "alice") // missing -attr
	cliErr(t, dir, "revoke", "-aid", "ghost", "-uid", "alice", "-attr", "doctor")
	cliErr(t, dir, "revoke", "-aid", "med", "-uid", "ghost", "-attr", "doctor")
}

func TestCLIDecryptRevokedKeyFileIsCurrentButUseless(t *testing.T) {
	// After revoke, the revoked user's key file is rewritten at the new
	// version with the reduced set — decryption fails on policy, not on
	// version (the file stays usable for the attributes that remain).
	dir := setupCLI(t)
	plain := filepath.Join(dir, "p.txt")
	if err := os.WriteFile(plain, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	enc := filepath.Join(dir, "e.enc")
	cli(t, dir, "encrypt", "-owner", "hospital", "-policy", "med:doctor", "-in", plain, "-out", enc)
	cli(t, dir, "revoke", "-aid", "med", "-uid", "alice", "-attr", "doctor")
	err := cliErr(t, dir, "decrypt", "-uid", "alice", "-in", enc)
	if err == nil || !strings.Contains(err.Error(), "satisfy") {
		t.Fatalf("expected policy failure, got: %v", err)
	}
}

// TestOpenStoreRejectsRetiredParams pins the upgrade path for state
// directories made before the default moved to PBC's 512-bit a.param: their
// params file holds the old 513-bit set, which no longer fits the 8-limb
// field. openStore must fail with ErrInvalidParams, not panic, and leave
// the directory as it found it.
func TestOpenStoreRejectsRetiredParams(t *testing.T) {
	dir := t.TempDir()
	retired := strings.Join([]string{
		"20301860231833114598641005763142720493888738528957608109043358401580478807106066893483095486137055720228780930537780026463377271001020864698048346658282731",
		"1240700080266801019348078620562842876609138719753",
		"16363229562673509516895572929760960456108751190710230266611947953828970101189563609243593826868276519471244",
		"11448672117395126746089558245729596125671060559782178736541505145695671660825454556816607192145409790574106844214289948824979288474383163796540699508405928",
		"2202765372023036855548900473460563006470260220740215046094422696072435520469541675799754649807173412330533486582799614038913565173530256128429376083570941",
	}, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, paramsFile), []byte(retired), 0o644); err != nil {
		t.Fatal(err)
	}
	before := snapshotDir(t, dir)
	s, err := openStore(dir)
	if !errors.Is(err, pairing.ErrInvalidParams) {
		t.Fatalf("openStore on a 513-bit params file: store %v, err = %v, want ErrInvalidParams", s, err)
	}
	if after := snapshotDir(t, dir); !reflect.DeepEqual(before, after) {
		t.Fatalf("openStore changed the state dir: %v → %v", before, after)
	}
}

// snapshotDir maps every path under dir to its contents ("/" for a
// directory).
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			files[path] = "/"
			return nil
		}
		raw, err := os.ReadFile(path)
		files[path] = string(raw)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
