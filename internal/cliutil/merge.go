package cliutil

import (
	"encoding/json"
	"fmt"
	"os"
)

// ReadObject reads a JSON object file with every member kept as raw bytes,
// so a tool that rewrites its own members leaves the others as they were. A
// missing or empty file reads as an empty object.
func ReadObject(path string) (map[string]json.RawMessage, error) {
	doc := map[string]json.RawMessage{}
	blob, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if len(blob) == 0 {
		return doc, nil
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, fmt.Errorf("%s is not a JSON object: %w", path, err)
	}
	if doc == nil {
		return nil, fmt.Errorf("%s holds null, not a JSON object", path)
	}
	return doc, nil
}

// WriteJSON writes v to path as indented JSON with a trailing newline.
func WriteJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// MergeByKey merges a run's records into the records already on file: old
// records keep their order, one whose key the run produced is replaced in
// place, and the run's other records follow in run order.
func MergeByKey[T any, K comparable](old, fresh []T, key func(T) K) []T {
	at := make(map[K]int, len(fresh))
	for i, r := range fresh {
		at[key(r)] = i
	}
	merged := make([]T, 0, len(old)+len(fresh))
	replaced := make(map[K]bool, len(fresh))
	for _, r := range old {
		k := key(r)
		if i, ok := at[k]; ok {
			merged = append(merged, fresh[i])
			replaced[k] = true
			continue
		}
		merged = append(merged, r)
	}
	for _, r := range fresh {
		if !replaced[key(r)] {
			merged = append(merged, r)
		}
	}
	return merged
}
