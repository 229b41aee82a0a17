package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"macrochip/internal/harness"
	"macrochip/internal/runflags"
)

// runWorker is macrosim's worker mode: execute distributed-sweep cells for
// a coordinator until EOF, shutdown, or SIGTERM. With connect empty the
// transport is stdin/stdout (the coordinator spawned this process); with a
// host:port it is a TCP dial-out to a coordinator listening via
// -dist-addr. depth is the credit window advertised in the hello
// (-dist-depth): the coordinator queues up to that many cells here, and
// the worker simulates them one at a time, answering in dispatch order, so
// a many-core host runs one `macrosim -connect` per core. Either way the
// worker's own result cache — optionally backed by a daemon's shared tier
// via -cache-url — is the only place results are persisted, through the
// same atomic temp-file+rename publish every local run uses.
func runWorker(connect, cacheDir string, noCache bool, cacheURL string, depth int) int {
	cache, err := runflags.OpenCache(cacheDir, noCache, cacheURL)
	if err != nil {
		log.Printf("result cache disabled: %v", err)
	}
	r := harness.Runner{Workers: 1, Cache: cache}

	quit := make(chan struct{})
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sigs
		close(quit)
	}()

	name := fmt.Sprintf("macrosim-%d", os.Getpid())
	var in io.Reader = os.Stdin
	var out io.Writer = os.Stdout
	if connect != "" {
		conn, err := net.Dial("tcp", connect)
		if err != nil {
			log.Printf("connecting to coordinator: %v", err)
			return 1
		}
		defer conn.Close()
		in, out = conn, conn
	}

	if err := harness.ServeWorker(in, out, r, name, depth, quit, os.Stderr); err != nil {
		log.Print(err)
		return 1
	}
	if cache != nil {
		fmt.Fprintln(os.Stderr, cache.Summary())
	}
	return 0
}
