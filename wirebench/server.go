package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lightpath/internal/serve"
)

// server is one running wdmserve process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	banner string // "serving ... (epoch 0, <mode> search)"
	exec   time.Time
	stderr *bytes.Buffer
	exited chan error
}

// launch starts wdmserve with the workload's instance flags plus a
// loopback listener, and returns once it has printed its address.
func launch(bin string, instance []string) (*server, error) {
	args := append(append([]string(nil), instance...), "-listen", "127.0.0.1:0")
	cmd := exec.Command(bin, args...)
	// The server must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, stderr: &bytes.Buffer{}, exited: make(chan error, 1)}
	cmd.Stderr = s.stderr
	s.exec = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	lines := make(chan string, 4) // the banner and listen lines, then drained
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
		close(lines)
		s.exited <- cmd.Wait()
	}()
	timeout := time.After(30 * time.Second)
	for s.addr == "" {
		select {
		case l, ok := <-lines:
			if !ok {
				return nil, fmt.Errorf("wdmserve exited before listening: %s", strings.TrimSpace(s.stderr.String()))
			}
			if strings.HasPrefix(l, "serving ") {
				s.banner = l
			}
			if rest, ok := strings.CutPrefix(l, "listening on "); ok {
				s.addr = strings.Fields(rest)[0]
			}
		case <-timeout:
			s.stop()
			return nil, errors.New("wdmserve did not listen within 30s")
		}
	}
	return s, nil
}

// stop drains the server with SIGTERM and waits for it to exit,
// killing it if the drain does not finish.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.exited:
		return err
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("wdmserve ignored SIGTERM for 15s; killed")
	}
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; Linux
// fixes it at 100 on every architecture this benchmark runs on.
const clockTick = 100

// cpuTime reads the server's user+system CPU time so far.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", data)
	}
	var ticks int64
	for _, v := range f[11:13] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTick, nil
}

// slices is how many equal parts the timed phase is cut into. Timed
// figures are medians over the slices, so a second-long burst of noise
// from the host does not move a run's result.
const slices = 5

// cpuSampler records the server's CPU time at each slice boundary of
// the timed phase.
type cpuSampler struct {
	at   [slices + 1]time.Duration
	err  error
	done chan struct{}
}

// sampleCPU starts sampling at start and every span after it.
func (s *server) sampleCPU(start time.Time, span time.Duration) *cpuSampler {
	cs := &cpuSampler{done: make(chan struct{})}
	go func() {
		defer close(cs.done)
		for k := range cs.at {
			time.Sleep(time.Until(start.Add(time.Duration(k) * span)))
			if cs.at[k], cs.err = s.cpuTime(); cs.err != nil {
				return
			}
		}
	}()
	return cs
}

// wait returns once the last sample is taken.
func (cs *cpuSampler) wait() error {
	<-cs.done
	return cs.err
}

// peakRSSMB reads the server's VmHWM in MiB.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// bannerMode extracts the search mode from the server banner.
func bannerMode(banner string) (string, error) {
	m := regexp.MustCompile(`, (\w+) search\)$`).FindStringSubmatch(banner)
	if m == nil {
		return "", fmt.Errorf("no search mode in banner %q", banner)
	}
	return m[1], nil
}

// serverStats is the part of the stats reply the checks and per-layer
// metrics use.
type serverStats struct {
	allocs, releases, conflicts, owners, held int64
	lookups, hits                             int64
}

var (
	statsLine = regexp.MustCompile(`^epoch \d+\s+allocs (\d+)\s+releases (\d+)\s+conflicts (\d+)\s+owners (\d+)\s+held (\d+)`)
	cacheLine = regexp.MustCompile(`^cache: \d+/\d+ entries\s+lookups (\d+)\s+hits (\d+)`)
)

// statsReplyLines is how many lines the stats verb answers.
const statsReplyLines = 5

// parseStats reads the counters out of a stats reply.
func parseStats(lines []string) (serverStats, error) {
	var st serverStats
	var m1, m2 []string
	for _, l := range lines {
		if m := statsLine.FindStringSubmatch(l); m != nil {
			m1 = m
		}
		if m := cacheLine.FindStringSubmatch(l); m != nil {
			m2 = m
		}
	}
	if m1 == nil || m2 == nil {
		return st, fmt.Errorf("unparseable stats reply %q", lines)
	}
	atoi := func(s string) int64 { v, _ := strconv.ParseInt(s, 10, 64); return v }
	st.allocs, st.releases, st.conflicts = atoi(m1[1]), atoi(m1[2]), atoi(m1[3])
	st.owners, st.held = atoi(m1[4]), atoi(m1[5])
	st.lookups, st.hits = atoi(m2[1]), atoi(m2[2])
	return st, nil
}

// fetchStats asks the server for its counters over c.
func fetchStats(c *serve.Client) (serverStats, error) {
	if err := c.Send("stats"); err != nil {
		return serverStats{}, err
	}
	lines := make([]string, statsReplyLines)
	for i := range lines {
		l, err := c.ReadLine()
		if err != nil {
			return serverStats{}, err
		}
		lines[i] = l
	}
	return parseStats(lines)
}

// serverDefaults are the wdmserve flag defaults the traced in-process
// replay mirrors, read from the built binary's own usage text so a
// changed default moves both runs together.
type serverDefaults struct {
	queue, directed string
	cache           int
	recorder        bool
	recorderSize    int
	slowThreshold   time.Duration
	traceSample     int
}

var usageDefault = regexp.MustCompile(`\(default "?([^")]*)"?\)\s*$`)

// readDefaults runs `wdmserve -h` and parses the defaults it prints.
func readDefaults(bin string) (serverDefaults, error) {
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 2 by design
	defs := map[string]string{}
	var flag string
	for _, l := range strings.Split(string(out), "\n") {
		t := strings.TrimSpace(l)
		if strings.HasPrefix(t, "-") {
			flag = strings.Fields(t)[0][1:]
			defs[flag] = "" // zero value unless a default is printed
		}
		if m := usageDefault.FindStringSubmatch(l); m != nil && flag != "" {
			defs[flag] = m[1]
		}
	}
	d := serverDefaults{queue: defs["queue"], directed: defs["directed"], recorder: defs["recorder"] == "true"}
	var err error
	atoi := func(name string) int {
		v, e := strconv.Atoi(defs[name])
		if e != nil && err == nil {
			err = fmt.Errorf("wdmserve -%s default %q: %w", name, defs[name], e)
		}
		return v
	}
	d.cache, d.recorderSize, d.traceSample = atoi("cache"), atoi("recorder-size"), atoi("trace-sample")
	if err != nil {
		return d, err
	}
	if d.slowThreshold, err = time.ParseDuration(defs["slow-threshold"]); err != nil {
		return d, fmt.Errorf("wdmserve -slow-threshold default: %w", err)
	}
	if d.queue == "" || d.directed == "" {
		return d, fmt.Errorf("wdmserve usage lacks -queue/-directed defaults")
	}
	return d, nil
}
