package fingerprint

import (
	"fmt"
	"reflect"
)

// MutateLeaves invokes f once per exported leaf field of template's type,
// each time with a fresh copy of template in which exactly that leaf has
// been changed to a different value. path names the leaf ("Config.GPU.NumCUs").
// It returns the number of leaves visited.
//
// This is the shared engine behind the repo's mutate-every-leaf guards: the
// artifact cache uses it to prove every config field moves the cache key,
// and the api/v1 wire schema uses it to prove every config field survives a
// JSON round trip. Keys hash that JSON, so a field the wire drops would
// also drop out of the key: either guard catches a newly added field that
// misses the encoding. Unsupported leaf kinds (maps, funcs, chans,
// interfaces) panic, so a field of such a kind gets a mutation rule here
// before it joins a key.
func MutateLeaves(template any, f func(path string, mutated any)) int {
	tv := reflect.ValueOf(template)
	n := 0
	var walk func(get func(root reflect.Value) reflect.Value, typ reflect.Type, path string)
	walk = func(get func(root reflect.Value) reflect.Value, typ reflect.Type, path string) {
		if typ.Kind() == reflect.Struct && typ.NumField() > 0 {
			exported := false
			for i := 0; i < typ.NumField(); i++ {
				fld := typ.Field(i)
				if !fld.IsExported() {
					continue
				}
				exported = true
				i := i
				walk(func(root reflect.Value) reflect.Value {
					return get(root).Field(i)
				}, fld.Type, path+"."+fld.Name)
			}
			if exported {
				return
			}
		}
		// Leaf: copy the template, mutate just this field.
		root := reflect.New(tv.Type()).Elem()
		root.Set(tv)
		leaf := get(root)
		switch leaf.Kind() {
		case reflect.Bool:
			leaf.SetBool(!leaf.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			leaf.SetInt(leaf.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			leaf.SetUint(leaf.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			leaf.SetFloat(leaf.Float() + 1)
		case reflect.String:
			leaf.SetString(leaf.String() + "x")
		default:
			panic(fmt.Sprintf("fingerprint: MutateLeaves: %s: unsupported leaf kind %s — extend MutateLeaves and the codecs together", path, leaf.Kind()))
		}
		n++
		f(path, root.Interface())
	}
	walk(func(root reflect.Value) reflect.Value { return root }, tv.Type(), tv.Type().Name())
	return n
}
