package cloud

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPerUserDownloadCounters exercises the per-user attribution of the
// download paths: UserClient downloads are metered under the user's UID,
// unattributed fetches count only in the cumulative counters, and failed
// lookups are not metered at all.
func TestPerUserDownloadCounters(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	doctor := addUser(t, env, "dr-bob", map[string][]string{
		"med": {"doctor"}, "trial": {"researcher"},
	})
	nurse := addUser(t, env, "nurse-eve", map[string][]string{
		"med": {"nurse"},
	})

	if _, err := doctor.Download("patient-7", "diagnosis"); err != nil {
		t.Fatal(err)
	}
	if _, err := doctor.DownloadRecord("patient-7"); err != nil {
		t.Fatal(err)
	}
	if _, err := nurse.Download("patient-7", "name"); err != nil {
		t.Fatal(err)
	}
	// Unattributed transport-level fetch: cumulative only.
	if _, _, err := env.Server.FetchWire("patient-7", "", ""); err != nil {
		t.Fatal(err)
	}
	// Failures are not metered anywhere.
	if _, err := doctor.Download("patient-7", "no-such-label"); err == nil {
		t.Fatal("expected component-not-found")
	}
	if _, err := doctor.DownloadRecord("no-such-record"); err == nil {
		t.Fatal("expected record-not-found")
	}

	m := env.Server.Metrics()
	if m.RecordFetches != 2 || m.ComponentFetches != 2 {
		t.Fatalf("cumulative fetches = %d records / %d components, want 2/2",
			m.RecordFetches, m.ComponentFetches)
	}
	if m.FetchedBytes == 0 {
		t.Fatal("cumulative FetchedBytes not metered")
	}
	bob := m.Users["dr-bob"]
	if bob.RecordFetches != 1 || bob.ComponentFetches != 1 {
		t.Fatalf("dr-bob = %+v, want 1 record fetch and 1 component fetch", bob)
	}
	eve := m.Users["nurse-eve"]
	if eve.RecordFetches != 0 || eve.ComponentFetches != 1 || eve.FetchedBytes == 0 {
		t.Fatalf("nurse-eve = %+v, want exactly 1 metered component fetch", eve)
	}
	if bob.FetchedBytes <= eve.FetchedBytes {
		t.Fatalf("dr-bob fetched a whole record more than nurse-eve (%d vs %d bytes)",
			bob.FetchedBytes, eve.FetchedBytes)
	}
	if _, ok := m.Users[""]; ok {
		t.Fatal("unattributed downloads must not create a user row")
	}
	if sum := bob.FetchedBytes + eve.FetchedBytes; sum >= m.FetchedBytes {
		t.Fatalf("per-user bytes (%d) must undercount the cumulative total (%d) by the unattributed fetch", sum, m.FetchedBytes)
	}
}

// TestHTTPUserAttribution drives the ?user= query parameter of the HTTP
// gateway and checks the attribution lands in both the JSON metrics and the
// maacs_user_* Prometheus families.
func TestHTTPUserAttribution(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	h := NewHTTPHandler(env.Sys, env.Server)

	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	if w := get("/records/patient-7?user=alice"); w.Code != 200 {
		t.Fatalf("fetch record: %d %s", w.Code, w.Body)
	}
	if w := get("/records/patient-7/name?user=alice"); w.Code != 200 {
		t.Fatalf("fetch component: %d %s", w.Code, w.Body)
	}
	if w := get("/records/patient-7/name"); w.Code != 200 { // unattributed
		t.Fatalf("unattributed fetch: %d %s", w.Code, w.Body)
	}

	var m HTTPMetrics
	if err := json.Unmarshal(get("/metrics?format=json").Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	alice := m.Users["alice"]
	if alice.RecordFetches != 1 || alice.ComponentFetches != 1 || alice.FetchedBytes == 0 {
		t.Fatalf("alice = %+v, want 1 attributed fetch of each kind", alice)
	}
	if m.ComponentFetches != 2 {
		t.Fatalf("cumulative component fetches = %d, want 2", m.ComponentFetches)
	}

	text := get("/metrics").Body.String()
	for _, want := range []string{
		`maacs_user_record_fetches_total{user="alice"} 1`,
		`maacs_user_component_fetches_total{user="alice"} 1`,
		"maacs_component_fetches_total 2\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestRPCUserAttribution checks the User field of RPCFetchArgs reaches the
// per-user counters through the net/rpc transport.
func TestRPCUserAttribution(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	srv := NewServerRPC(env.Sys, env.Server)

	var reply RPCFetchReply
	if err := srv.Fetch(&RPCFetchArgs{RecordID: "patient-7", User: "carol"}, &reply); err != nil {
		t.Fatal(err)
	}
	reply = RPCFetchReply{}
	if err := srv.Fetch(&RPCFetchArgs{RecordID: "patient-7", Label: "name", User: "carol"}, &reply); err != nil {
		t.Fatal(err)
	}
	reply = RPCFetchReply{}
	if err := srv.Fetch(&RPCFetchArgs{RecordID: "patient-7"}, &reply); err != nil {
		t.Fatal(err)
	}

	m := env.Server.Metrics()
	carol := m.Users["carol"]
	if carol.RecordFetches != 1 || carol.ComponentFetches != 1 {
		t.Fatalf("carol = %+v, want 1 fetch of each kind", carol)
	}
	if m.RecordFetches != 2 {
		t.Fatalf("cumulative record fetches = %d, want 2", m.RecordFetches)
	}
}
