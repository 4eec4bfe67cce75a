// Package cowtest audits copy-on-write publication (DESIGN §8): what a reader
// Loads from an atomic.Pointer never changes, however often writers republish.
package cowtest

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"apollo/internal/bg"
)

// Frozen is Held with a reader traversing what it loads all the while:
// under -race, a write to a published snapshot is then a data race too.
func Frozen(t testing.TB, what string, load func() any, republish func(i int)) {
	ctx, stop := context.WithCancel(context.Background())
	done := bg.New(ctx, nil).Go("reader", func(ctx context.Context) error {
		for ctx.Err() == nil {
			Render(load())
		}
		return nil
	})
	Held(t, what, load, republish)
	stop()
	<-done
}

// Held renders and holds what load returns before each of 128 calls of
// republish, the package's own writer, then fails t at the first snapshot
// that renders differently, naming what and the field ("" where it grew).
func Held(t testing.TB, what string, load func() any, republish func(i int)) {
	held, was := make([]any, 128), make([]string, 128)
	for i := range held {
		held[i] = load()
		was[i] = Render(held[i])
		republish(i)
	}
	for i, s := range held {
		now := strings.Split(Render(s), "\n")
		for j, line := range strings.Split(was[i], "\n") {
			if j >= len(now) || now[j] != line {
				t.Errorf("%s: a published snapshot changed after it was loaded: %q is now %q", what, line, now[min(j, len(now)-1)])
				return
			}
		}
	}
}

// Render lists what is reachable from v, one "path = value" line each —
// structure, sorted map keys, pointer identities, every field — but for sync
// and sync/atomic cells, which are updated in place by design, and what is
// behind a pointer to a type outside this module.
func Render(v any) string {
	var out strings.Builder
	walk(&out, "", reflect.ValueOf(v), map[any]bool{})
	return out.String()
}

func walk(out *strings.Builder, path string, v reflect.Value, seen map[any]bool) {
	if k := v.Kind(); (k == reflect.Slice || k == reflect.Array) && v.Type().Elem().Kind() < reflect.Array {
		fmt.Fprintf(out, "%s = %v\n", path, v) // numbers: one line for all of them
		return
	}
	switch v.Kind() {
	case reflect.Pointer:
		fmt.Fprintf(out, "%s = %#x\n", path, v.Pointer())
		id, pkg := [2]any{v.Type(), v.Pointer()}, v.Type().Elem().PkgPath()
		if !v.IsNil() && !seen[id] && (pkg == "" || strings.HasPrefix(pkg, "apollo")) {
			seen[id] = true
			walk(out, path, v.Elem(), seen)
		}
	case reflect.Interface:
		walk(out, path, v.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < v.NumField() && !strings.HasPrefix(v.Type().PkgPath(), "sync"); i++ {
			walk(out, path+"."+v.Type().Field(i).Name, v.Field(i), seen)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walk(out, fmt.Sprintf("%s[%d]", path, i), v.Index(i), seen)
		}
	case reflect.Map:
		name := func(k reflect.Value) string { // a pointer key by identity
			if k.Kind() == reflect.Pointer {
				return fmt.Sprintf("%#x", k.Pointer())
			}
			return fmt.Sprintf("%#v", k)
		}
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return name(keys[i]) < name(keys[j]) })
		for _, k := range keys {
			walk(out, path+"["+name(k)+"]", v.MapIndex(k), seen)
		}
	default:
		fmt.Fprintf(out, "%s = %v\n", path, v)
	}
}
