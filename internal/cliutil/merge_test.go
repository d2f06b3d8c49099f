package cliutil

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

type rec struct {
	key string
	val int
}

// TestMergeByKey pins the merge rule rmrbench -json and rmenative -merge
// share: old records keep their order, a same-key record is replaced in
// place, and new keys follow in run order.
func TestMergeByKey(t *testing.T) {
	cases := []struct {
		name       string
		old, fresh []rec
		want       []rec
	}{
		{"empty file", nil, []rec{{"b", 1}, {"a", 2}}, []rec{{"b", 1}, {"a", 2}}},
		{"empty run", []rec{{"a", 1}, {"b", 2}}, nil, []rec{{"a", 1}, {"b", 2}}},
		{"replace in place", []rec{{"a", 1}, {"b", 2}, {"c", 3}}, []rec{{"b", 20}}, []rec{{"a", 1}, {"b", 20}, {"c", 3}}},
		{"append in run order", []rec{{"a", 1}}, []rec{{"c", 30}, {"b", 20}}, []rec{{"a", 1}, {"c", 30}, {"b", 20}}},
		{"mixed", []rec{{"x", 1}, {"y", 2}}, []rec{{"z", 30}, {"x", 10}, {"w", 40}}, []rec{{"x", 10}, {"y", 2}, {"z", 30}, {"w", 40}}},
		{"replace all, reorder none", []rec{{"a", 1}, {"b", 2}}, []rec{{"b", 20}, {"a", 10}}, []rec{{"a", 10}, {"b", 20}}},
	}
	for _, c := range cases {
		got := MergeByKey(c.old, c.fresh, func(r rec) string { return r.key })
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: MergeByKey(%v, %v) = %v, want %v", c.name, c.old, c.fresh, got, c.want)
		}
	}
}

// TestReadObject: members come back as the bytes on file, a missing or
// empty file is an empty object, and anything but an object is an error, so
// a merge never overwrites a file it could not keep.
func TestReadObject(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	doc, err := ReadObject(write("obj.json", `{"b": [1, 2], "a": {"k":  1}}`))
	if err != nil || string(doc["a"]) != `{"k":  1}` || string(doc["b"]) != `[1, 2]` {
		t.Errorf("object: doc %q, err %v", doc, err)
	}
	for _, path := range []string{write("empty.json", ""), filepath.Join(dir, "missing.json")} {
		if doc, err := ReadObject(path); err != nil || len(doc) != 0 {
			t.Errorf("%s: doc %v, err %v; want an empty object", path, doc, err)
		}
	}
	for _, body := range []string{"null", "[1, 2]", "{"} {
		if _, err := ReadObject(write("bad.json", body)); err == nil {
			t.Errorf("%q: want an error", body)
		}
	}
}
