package trace_test

import (
	"reflect"
	"testing"
	"unsafe"

	"doublechecker/internal/trace"
)

// TestEventIsCompact pins the decoded form: an Event packs into 32 bytes and
// holds nothing the garbage collector must scan, so a decoded stream is one
// flat, pointer-free array.
func TestEventIsCompact(t *testing.T) {
	if size := unsafe.Sizeof(trace.Event{}); size > 32 {
		t.Errorf("trace.Event is %d bytes, want at most 32", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: a decoded event must hold no pointer", path, typ.Kind())
		}
	}
	walk("Event", reflect.TypeOf(trace.Event{}))
}
