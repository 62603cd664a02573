package mpi

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// Multi-process execution: the same rank function runs in np separate OS
// processes connected by a real TCP mesh, the closest stdlib-only
// equivalent of `mpirun -np N ./prog`. The parent process acts as the
// coordinator (it spawns children re-executing the current binary and
// brokers address exchange); each child runs exactly one rank.
//
// Usage:
//
//	worker, err := mpi.RunProcesses(3, "sum", mpi.Programs{
//	    "sum": func(c *mpi.Comm) error { ... },
//	})
//	if worker {
//	    return // this invocation was a child; parent-only code follows
//	}
//
// RunProcesses detects via environment variables whether it is running in
// a child and switches to worker mode, so parent and child share one call
// site.

const (
	envRank  = "REPROMPI_RANK"
	envSize  = "REPROMPI_SIZE"
	envCoord = "REPROMPI_COORD"
	envProg  = "REPROMPI_PROG"
)

// procTimeout bounds a multi-process run's registration and is its
// workers' default progress watchdog.
const procTimeout = 60 * time.Second

// ProcOption configures RunProcesses.
type ProcOption func(*procOptions)

type procOptions struct {
	childArgs []string
	mpiOpts   []Option
	stdout    io.Writer
	stderr    io.Writer
}

// WithChildArgs appends arguments to the re-executed child command line
// (tests pass -test.run filters here).
func WithChildArgs(args ...string) ProcOption {
	return func(o *procOptions) { o.childArgs = append(o.childArgs, args...) }
}

// WithChildOutput redirects the children's stdout and stderr (default:
// the parent's). Tests pass io.Discard to keep logs clean.
func WithChildOutput(stdout, stderr io.Writer) ProcOption {
	return func(o *procOptions) { o.stdout, o.stderr = stdout, stderr }
}

// WithRunOptions forwards runtime options (eager threshold, hook, …) to
// the worker-side world.
func WithRunOptions(opts ...Option) ProcOption {
	return func(o *procOptions) { o.mpiOpts = append(o.mpiOpts, opts...) }
}

// InWorker reports whether this process is a spawned rank.
func InWorker() bool { return os.Getenv(envRank) != "" }

// runCoordinator listens for worker registrations, spawns the children,
// brokers the address table, and waits for every child to exit.
func runCoordinator(np int, name string, o procOptions) error {
	ln, err := net.ListenTCP("tcp", loopback)
	if err != nil {
		return fmt.Errorf("mpi: coordinator listen: %w", err)
	}
	defer ln.Close()

	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("mpi: resolving executable: %w", err)
	}
	cmds := make([]*exec.Cmd, np)
	for r := 0; r < np; r++ {
		args := append(append([]string(nil), os.Args[1:]...), o.childArgs...)
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(),
			envRank+"="+strconv.Itoa(r),
			envSize+"="+strconv.Itoa(np),
			envCoord+"="+ln.Addr().String(),
			envProg+"="+name,
		)
		cmd.Stdout = o.stdout
		cmd.Stderr = o.stderr
		if err := cmd.Start(); err != nil {
			killAll(cmds)
			return fmt.Errorf("mpi: spawning rank %d: %w", r, err)
		}
		cmds[r] = cmd
	}

	// Registration: every child reports "rank addr\n".
	addrs := make([]string, np)
	conns := make([]net.Conn, np)
	deadline := time.Now().Add(procTimeout)
	registered := 0
	for registered < np {
		ln.SetDeadline(deadline)
		conn, err := ln.Accept()
		if err != nil {
			killAll(cmds)
			return fmt.Errorf("mpi: coordinator accept (after %d/%d registrations): %w", registered, np, err)
		}
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil {
			conn.Close()
			killAll(cmds)
			return fmt.Errorf("mpi: registration read: %w", err)
		}
		var rank int
		var addr string
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "%d %s", &rank, &addr); err != nil || rank < 0 || rank >= np {
			conn.Close()
			killAll(cmds)
			return fmt.Errorf("mpi: bad registration %q", strings.TrimSpace(line))
		}
		addrs[rank] = addr
		conns[rank] = conn
		registered++
	}
	// Broadcast the address table: one line with all addresses.
	table := strings.Join(addrs, " ") + "\n"
	for r, conn := range conns {
		if _, err := io.WriteString(conn, table); err != nil {
			killAll(cmds)
			return fmt.Errorf("mpi: sending address table to rank %d: %w", r, err)
		}
		conn.Close()
	}

	var firstErr error
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("mpi: rank %d process: %w", r, err)
		}
	}
	return firstErr
}

func killAll(cmds []*exec.Cmd) {
	for _, cmd := range cmds {
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}
}

// runWorker joins the mesh described by the environment as this
// process's rank, with one listener and one rank local, and hands start
// the rank, the listeners by rank (its own the only one) and every
// rank's address.
func runWorker(start func(rank int, lns []net.Listener, addrs []*net.TCPAddr) error) error {
	rank, err := strconv.Atoi(os.Getenv(envRank))
	if err != nil {
		return fmt.Errorf("mpi: bad %s: %w", envRank, err)
	}
	np, err := strconv.Atoi(os.Getenv(envSize))
	if err != nil {
		return fmt.Errorf("mpi: bad %s: %w", envSize, err)
	}
	if rank < 0 || rank >= np {
		return fmt.Errorf("mpi: %s=%d outside world of size %d", envRank, rank, np)
	}
	coord, err := parseListenAddr(os.Getenv(envCoord))
	if err != nil {
		return fmt.Errorf("mpi: bad %s: %w", envCoord, err)
	}

	// Listen for peers, register with the coordinator, learn the table.
	ln, err := net.ListenTCP("tcp", loopback)
	if err != nil {
		return fmt.Errorf("mpi: tcp listen for rank %d: %w", rank, err)
	}
	defer ln.Close()
	cc, err := dialRetry(context.Background(), coord, procTimeout, nil)
	if err != nil {
		return fmt.Errorf("mpi: dialing coordinator: %w", err)
	}
	if _, err := fmt.Fprintf(cc, "%d %s\n", rank, ln.Addr().String()); err != nil {
		cc.Close()
		return fmt.Errorf("mpi: registering: %w", err)
	}
	line, err := bufio.NewReader(cc).ReadString('\n')
	cc.Close()
	if err != nil {
		return fmt.Errorf("mpi: reading address table: %w", err)
	}
	table := strings.Fields(line)
	if len(table) != np {
		return fmt.Errorf("mpi: address table has %d entries, want %d", len(table), np)
	}
	addrs := make([]*net.TCPAddr, np)
	for p, entry := range table {
		if addrs[p], err = parseListenAddr(entry); err != nil {
			return fmt.Errorf("mpi: rank %d: address table entry for rank %d is %q: %w", rank, p, entry, err)
		}
	}

	lns := make([]net.Listener, np)
	lns[rank] = ln
	return start(rank, lns, addrs)
}
