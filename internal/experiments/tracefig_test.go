package experiments

import (
	"reflect"
	"testing"
)

// The trace table, cell for cell: closed-page CLI is order-insensitive,
// and on open-page PI the SMC reordering recovers what natural order
// loses.
func TestLLMKVCache(t *testing.T) {
	tab, err := LLMKVCache()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"4", "32768", "CLI", "31.0", "31.0"},
		{"4", "32768", "PI", "68.6", "96.1"},
		{"32", "32768", "CLI", "31.0", "31.0"},
		{"32", "32768", "PI", "59.8", "93.2"},
		{"256", "32768", "CLI", "31.0", "31.0"},
		{"256", "32768", "PI", "59.8", "93.2"},
	}
	if !reflect.DeepEqual(tab.Rows, want) {
		t.Errorf("rows = %q\nwant   %q", tab.Rows, want)
	}
}
