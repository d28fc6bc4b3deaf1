package cloud

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestDownloadTakesServedPath pins in-process downloads to the read path both
// transports serve. Each UserClient.Download is one more render, which
// ResponseCacheStats counts as one miss. One record fetched in-process, over
// net/rpc and over HTTP meters the same Server↔User bytes and messages and
// fills the same per-user row. And writing into what decodeComponents
// returns (a hostile or merely careless client scribbling over its download)
// leaves the next served reply unchanged.
func TestDownloadTakesServedPath(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	doctor := addUser(t, env, "dr-a", map[string][]string{"med": {"doctor"}})
	proc := addUser(t, env, "dr-proc", map[string][]string{"med": {"doctor"}})

	if _, err := doctor.Download("patient-7", "diagnosis"); err != nil {
		t.Fatal(err)
	}
	before := env.Server.ResponseCacheStats()
	if _, err := doctor.Download("patient-7", "diagnosis"); err != nil {
		t.Fatal(err)
	}
	if after := env.Server.ResponseCacheStats(); after != (ResponseCacheStats{Misses: before.Misses + 1}) {
		t.Fatalf("second download: %+v -> %+v, want one more miss and no hits or evictions", before, after)
	}

	remote := remoteFor(t, env.Sys, env.Server)
	ts := httptest.NewServer(NewHTTPHandler(env.Sys, env.Server))
	t.Cleanup(ts.Close)
	fetches := map[string]func() error{
		"dr-proc": func() error {
			if _, err := proc.DownloadRecord("patient-7"); err != nil {
				return err
			}
			_, err := proc.Download("patient-7", "name")
			return err
		},
		"dr-rpc": func() error {
			if _, err := remote.FetchAs("patient-7", "dr-rpc"); err != nil {
				return err
			}
			_, err := remote.FetchComponentAs("patient-7", "name", "dr-rpc")
			return err
		},
		"dr-http": func() error {
			if err := httpCall(http.MethodGet, ts.URL+"/records/patient-7?user=dr-http", nil); err != nil {
				return err
			}
			return httpCall(http.MethodGet, ts.URL+"/records/patient-7/name?user=dr-http", nil)
		},
	}
	type metered struct{ bytes, msgs int }
	got := make(map[string]metered)
	for user, fetch := range fetches {
		b0, m0 := env.Acct.Bytes(ChanServerUser), env.Acct.Messages(ChanServerUser)
		if err := fetch(); err != nil {
			t.Fatalf("%s: %v", user, err)
		}
		got[user] = metered{env.Acct.Bytes(ChanServerUser) - b0, env.Acct.Messages(ChanServerUser) - m0}
	}
	rows := env.Server.Metrics().Users
	want, wantRow := got["dr-proc"], rows["dr-proc"]
	if want.msgs != 2 || want.bytes == 0 || wantRow.RecordFetches != 1 || wantRow.ComponentFetches != 1 {
		t.Fatalf("in-process download metered %+v, row %+v; want 2 messages and one fetch of each kind", want, wantRow)
	}
	for _, user := range []string{"dr-rpc", "dr-http"} {
		if got[user] != want || rows[user] != wantRow {
			t.Fatalf("%s metered %+v, row %+v; in-process metered %+v, row %+v", user, got[user], rows[user], want, wantRow)
		}
	}

	for _, label := range []string{"", "diagnosis"} {
		_, served, err := env.Server.FetchWire("patient-7", label, "")
		if err != nil {
			t.Fatal(err)
		}
		want := wireBytes(served)
		comps, err := decodeComponents(env.Sys, "patient-7", served)
		if err != nil {
			t.Fatal(err)
		}
		for i := range comps {
			for j := range comps[i].Sealed {
				comps[i].Sealed[j] ^= 0xff
			}
			for aid := range comps[i].CT.Versions {
				comps[i].CT.Versions[aid] += 100
			}
			comps[i].CT.Policy = "mangled"
			comps[i].CT.Rows = comps[i].CT.Rows[:0]
		}
		_, again, err := env.Server.FetchWire("patient-7", label, "")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wireBytes(again), want) {
			t.Fatalf("label %q: writing into a decoded download changed the served reply", label)
		}
	}
	if _, err := doctor.Download("patient-7", "diagnosis"); err != nil {
		t.Fatalf("record no longer decryptable after client-side writes: %v", err)
	}
}

// wireBytes flattens served components into one byte string.
func wireBytes(comps []RPCComponent) []byte {
	var out []byte
	for _, c := range comps {
		out = append(out, c.Label...)
		out = append(out, c.CT...)
		out = append(out, c.Sealed...)
	}
	return out
}
