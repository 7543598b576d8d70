package collector

import (
	"encoding/base64"
	"reflect"
	"strings"
	"testing"
)

// TestLoadedForgedValueCannotPoisonIngest loads an export line that
// maps sampleRecord's fonts hash to a different list, then sends an
// honest batch for sampleRecord: the stored record must carry its real
// fonts, so the forged line has to be refused at load.
func TestLoadedForgedValueCannotPoisonIngest(t *testing.T) {
	_, store, addr := startServer(t)
	rec := sampleRecord()
	_, refs, _ := StripRecord(rec)
	forged := `{"hash":"` + refs[FieldFonts] + `","val":"` +
		base64.StdEncoding.EncodeToString(encodeList([]string{"Comic Sans"})) + `"}` + "\n"
	if _, err := store.ReadFrom(strings.NewReader(forged)); err == nil {
		t.Error("ReadFrom accepted a value that does not hash to its key")
	} else if !strings.Contains(err.Error(), refs[FieldFonts]) {
		t.Errorf("ReadFrom error %q does not name the hash %s", err, refs[FieldFonts])
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := submitOne(c, rec, "honest", 1); err != nil {
		t.Fatal(err)
	}
	got := store.Records()
	if len(got) != 1 {
		t.Fatalf("stored %d records, want 1", len(got))
	}
	if !reflect.DeepEqual(got[0].FP.Fonts, rec.FP.Fonts) {
		t.Fatalf("stored fonts %v, want %v", got[0].FP.Fonts, rec.FP.Fonts)
	}
}
