// Command tool is the only caller of lib.ForCmd.
package main

import (
	"fmt"

	"repro/internal/lint/testdata/src/testonly/internal/lib"
)

func main() { fmt.Println(lib.ForCmd()) }
