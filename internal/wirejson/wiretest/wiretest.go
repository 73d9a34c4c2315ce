// Package wiretest holds the differential check the codec tests and fuzz
// targets of ogsi and core share.
package wiretest

import (
	"encoding/json"
	"reflect"
	"testing"

	"neesgrid/internal/wirejson"
)

// AgreeWithEncodingJSON fails t unless strict, handed data, either declines
// and leaves its receiver alone, or produces exactly what json.Unmarshal
// produces from the same bytes. strict and slow point at zero values of the
// same type.
func AgreeWithEncodingJSON(t *testing.T, data []byte, strict wirejson.StrictDecoder, slow any) {
	t.Helper()
	before := reflect.ValueOf(strict).Elem().Interface()
	if !strict.DecodeStrict(data) {
		if after := reflect.ValueOf(strict).Elem().Interface(); !reflect.DeepEqual(before, after) {
			t.Fatalf("decoder declined %q but left %+v behind", data, after)
		}
		return
	}
	if err := json.Unmarshal(data, slow); err != nil {
		t.Fatalf("strict decoder accepted %q, encoding/json: %v", data, err)
	}
	got, want := reflect.ValueOf(strict).Elem().Interface(), reflect.ValueOf(slow).Elem().Interface()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q\nstrict        %#v\nencoding/json %#v", data, got, want)
	}
}
