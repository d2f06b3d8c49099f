package sim

import (
	"strings"
	"testing"
)

func TestParseModel(t *testing.T) {
	cases := []struct {
		name string
		want Model
		ok   bool
	}{
		{"cc", CC, true},
		{"CC", CC, true},
		{"dsm", DSM, true},
		{"DSM", DSM, true},
		{"Dsm", DSM, true},
		{"dms", 0, false},
		{"numa", 0, false},
		{"", 0, false},
		{" cc", 0, false},
	}
	for _, c := range cases {
		got, err := ParseModel(c.name)
		if !c.ok {
			if err == nil || !strings.Contains(err.Error(), `"`+c.name+`"`) {
				t.Errorf("ParseModel(%q) = %v, %v; want an error naming the value", c.name, got, err)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
		if back, err := ParseModel(got.String()); err != nil || back != got {
			t.Errorf("ParseModel(%v.String()) = %v, %v; want a round trip", got, back, err)
		}
	}
}
