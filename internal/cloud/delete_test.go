package cloud

import (
	"errors"
	"testing"
)

func TestDeleteRecord(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	if owner.Owner.RecordCount() != 3 {
		t.Fatalf("owner retains %d records, want 3", owner.Owner.RecordCount())
	}
	if err := owner.Delete("patient-7"); err != nil {
		t.Fatal(err)
	}
	if owner.Owner.RecordCount() != 0 {
		t.Fatalf("owner retains %d records after delete", owner.Owner.RecordCount())
	}
	if _, _, err := env.Server.FetchWire("patient-7", "", ""); !errors.Is(err, ErrRecordNotFound) {
		t.Fatalf("record still fetchable: %v", err)
	}
}

func TestDeleteRequiresOwnership(t *testing.T) {
	env, owner := hospitalEnv(t)
	uploadPatientRecord(t, owner)
	intruder, err := env.AddOwner("intruder")
	if err != nil {
		t.Fatal(err)
	}
	if err := intruder.Delete("patient-7"); err == nil {
		t.Fatal("foreign owner deleted the record")
	}
	if _, _, err := env.Server.FetchWire("patient-7", "", ""); err != nil {
		t.Fatalf("record damaged by failed delete: %v", err)
	}
}

func TestDeleteUnknownRecord(t *testing.T) {
	_, owner := hospitalEnv(t)
	if err := owner.Delete("ghost"); !errors.Is(err, ErrRecordNotFound) {
		t.Fatalf("got %v, want ErrRecordNotFound", err)
	}
}
