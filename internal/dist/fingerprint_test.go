package dist

import "testing"

func TestFingerprint64(t *testing.T) {
	a := []float64{0.03, 0.031, 0.35}
	b := []float64{0.03, 0.031, 0.35}
	if Fingerprint64(a) != Fingerprint64(b) {
		t.Error("identical series must fingerprint equal")
	}
	if Fingerprint64(a) == Fingerprint64(a[:2]) {
		t.Error("prefix must fingerprint differently")
	}
	if Fingerprint64([]float64{0.031, 0.03, 0.35}) == Fingerprint64(a) {
		t.Error("order must matter")
	}
	if Fingerprint64(nil) != Fingerprint64([]float64{}) {
		t.Error("empty series must agree regardless of nil-ness")
	}
	if Fingerprint64([]float64{0}) == Fingerprint64(nil) {
		t.Error("a sample must change the hash")
	}
}

func TestFingerprintSnapshotMatchesWindow(t *testing.T) {
	w, err := NewWindowedECDF(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0.05, 0.03, 0.04, 0.02, 0.06} {
		if err := w.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := w.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if w.Fingerprint() != snap.Fingerprint() {
		t.Error("snapshot must fingerprint identically to the live window")
	}
	// A further push changes the window but not the retained snapshot.
	old := snap.Fingerprint()
	if err := w.Push(0.07); err != nil {
		t.Fatal(err)
	}
	if snap.Fingerprint() != old {
		t.Error("snapshot fingerprint must be immutable")
	}
	if w.Fingerprint() == old {
		t.Error("window fingerprint must move with the window")
	}
}
