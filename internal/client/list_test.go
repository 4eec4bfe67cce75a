package client

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// List reads the service's own encoding of GET /models.
func TestListReadsTheServiceList(t *testing.T) {
	ts, reg := newService(t)
	c := New(ts.URL, Options{})
	if list, err := c.List(); err != nil || len(list) != 0 {
		t.Fatalf("empty registry lists %v, %v", list, err)
	}
	for _, name := range []string{"lulesh/policy", "ares/policy"} {
		if _, err := reg.Publish(name, testModel(t, false)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Publish("ares/policy", testModel(t, true)); err != nil {
		t.Fatal(err)
	}
	list, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("list = %+v, want two models", list)
	}
	for _, mi := range list {
		e, ok := reg.Get(mi.Name)
		if !ok || mi.Version != e.Version || mi.ETag != e.ETag || mi.ETag == "" {
			t.Errorf("entry %+v, registry holds %s v%d %s", mi, e.Name, e.Version, e.ETag)
		}
	}
	if err := c.Healthy(); err != nil {
		t.Errorf("healthy service probed %v", err)
	}
}

// A status other than 200 is an error whatever the body says — a JSON
// error body decodes as a list with no models — and so is a body past the
// cap; the probe follows the same rule.
func TestListAndHealthyCheckStatusAndSize(t *testing.T) {
	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		want    string
	}{
		{"404 with a JSON body", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusNotFound)
			io.WriteString(w, `{"error":"no such route"}`)
		}, "404"},
		{"500 with a JSON body", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusInternalServerError)
			io.WriteString(w, `{"error":"registry unavailable"}`)
		}, "500"},
		{"200 that is not a list", func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, `<html>captive portal</html>`)
		}, "decoding"},
		{"oversize body", func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, `{"models":[]`) // valid JSON, 17 MiB of it
			for i := 0; i < 17; i++ {
				io.WriteString(w, strings.Repeat(" ", 1<<20))
			}
			io.WriteString(w, `}`)
		}, "exceeds"},
	} {
		ts := httptest.NewServer(tc.handler)
		c := New(ts.URL, Options{})
		list, err := c.List()
		if err == nil || list != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: List = %v, %v; want an error naming %q", tc.name, list, err, tc.want)
		}
		if herr := c.Healthy(); (herr == nil) != (tc.name == "200 that is not a list") {
			t.Errorf("%s: Healthy = %v", tc.name, herr)
		}
		ts.Close()
	}
}
