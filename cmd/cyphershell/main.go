// Command cyphershell is an interactive Cypher shell over the synthetic
// IYP graph — the expert-mode access path that ChatIYP exists to make
// unnecessary. With -server it runs in remote mode: queries go to a
// chatiyp-server over the v1 API's streaming NDJSON transport through
// the client SDK, and rows print as the server produces them.
//
// Usage:
//
//	cyphershell
//	cyphershell -c "MATCH (a:AS {asn: 2497}) RETURN a"
//	cyphershell -graph snapshot.iypc
//	cyphershell -server http://localhost:8080
//	cyphershell -server http://localhost:8080 -session   # results become handles
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"chatiyp/client"
	"chatiyp/internal/api"
	"chatiyp/internal/cypher"
	"chatiyp/internal/graph"
	"chatiyp/internal/iyp"
)

func main() {
	var (
		command = flag.String("c", "", "one-shot query (omit for REPL mode)")
		small   = flag.Bool("small", false, "use the small dataset")
		graphIn = flag.String("graph", "", "load the graph from a snapshot")
		remote  = flag.String("server", "", "remote mode: ChatIYP server base URL (e.g. http://localhost:8080)")
		session = flag.Bool("session", false, "remote mode: run queries inside one server-side tool session (results become named handles; type :session for state)")
	)
	flag.Parse()

	var runFn func(query string) error
	if *remote != "" {
		c, err := client.New(*remote)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cyphershell:", err)
			os.Exit(1)
		}
		if err := c.Health(context.Background()); err != nil {
			fmt.Fprintln(os.Stderr, "cyphershell: server unreachable:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "connected to %s — rows stream as the server produces them\n", *remote)
		if *session {
			sess, err := c.NewSession(context.Background(), 0)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cyphershell: creating session:", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "session %s — each result is stored server-side as a handle (r1, r2, ...)\n", sess.ID)
			defer func() { _ = sess.Delete(context.Background()) }()
			runFn = func(q string) error { return runSession(c, sess, q) }
		} else {
			runFn = func(q string) error { return runRemote(c, q) }
		}
	} else {
		g, err := loadGraph(*graphIn, *small)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cyphershell:", err)
			os.Exit(1)
		}
		stats := g.CollectStats()
		fmt.Fprintf(os.Stderr, "graph ready: %d nodes, %d relationships — type Cypher, end with ';' or newline\n",
			stats.Nodes, stats.Relationships)
		runFn = func(q string) error { return run(g, q) }
	}

	if *command != "" {
		if err := runFn(*command); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Fprint(os.Stderr, "cypher> ")
		if !scanner.Scan() {
			break
		}
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		if line == "exit" || line == "quit" {
			break
		}
		if err := runFn(line); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
}

// runRemote executes one query against the server. EXPLAIN goes to
// /v1/explain; everything else streams over NDJSON and prints rows
// incrementally, so a large result starts rendering before the scan
// finishes.
func runRemote(c *client.Client, query string) error {
	ctx := context.Background()
	if rest, ok := strings.CutPrefix(strings.TrimSpace(query), "EXPLAIN "); ok {
		plan, err := c.Explain(ctx, rest)
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}
	start := time.Now()
	rows, err := c.QueryStream(ctx, query, nil)
	if err != nil {
		return err
	}
	defer rows.Close()
	if cols := rows.Columns(); len(cols) > 0 {
		fmt.Println(strings.Join(cols, " | "))
		fmt.Println(strings.Repeat("-", len(strings.Join(cols, " | "))))
	}
	for rows.Next() {
		row := rows.Row()
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = graph.FormatValue(v)
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	if err := rows.Err(); err != nil {
		return err
	}
	summary := fmt.Sprintf("%d rows in %v", rows.Count(), time.Since(start))
	if rows.Truncated() {
		summary += " (truncated by the server row cap)"
	}
	if st := rows.Stats(); st.Changed() {
		summary += fmt.Sprintf(" (created %d nodes, %d rels; set %d props; deleted %d nodes, %d rels)",
			st.NodesCreated, st.RelationshipsCreated, st.PropertiesSet,
			st.NodesDeleted, st.RelationshipsDeleted)
	}
	fmt.Fprintln(os.Stderr, summary)
	return nil
}

// runSession executes one query through the agent tools endpoint
// inside the shell's session: rows stream over NDJSON exactly like
// plain remote mode, but every result is stored server-side as a named
// handle for later turns. ":session" prints the accumulated state.
func runSession(c *client.Client, sess *client.Session, query string) error {
	ctx := context.Background()
	if strings.TrimSpace(query) == ":session" {
		info, err := sess.Info(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("session %s: %d calls, %d tokens, expires in %ds\n",
			info.SessionID, info.Calls, info.TokensUsed, info.ExpiresInSeconds)
		fmt.Printf("handles: %s\n", strings.Join(info.Handles, ", "))
		for _, e := range info.Transcript {
			line := fmt.Sprintf("  #%d %-15s %s", e.Seq, e.Tool, e.Summary)
			if e.Err != "" {
				line += "  ERR: " + e.Err
			}
			fmt.Println(line)
		}
		return nil
	}
	if rest, ok := strings.CutPrefix(strings.TrimSpace(query), "EXPLAIN "); ok {
		res, err := sess.RunCypher(ctx, api.RunCypherParams{Query: rest, Explain: true})
		if err != nil {
			return err
		}
		fmt.Print(res.Cypher.Plan)
		return nil
	}
	args, err := json.Marshal(api.RunCypherParams{Query: query})
	if err != nil {
		return err
	}
	start := time.Now()
	rows, err := c.CallToolStream(ctx, api.ToolCallParams{
		Name: api.ToolRunCypher, Arguments: args, SessionID: sess.ID,
	})
	if err != nil {
		return err
	}
	defer rows.Close()
	printedHeader := false
	count := 0
	for rows.Next() {
		if !printedHeader {
			if cols := rows.Columns(); len(cols) > 0 {
				fmt.Println(strings.Join(cols, " | "))
				fmt.Println(strings.Repeat("-", len(strings.Join(cols, " | "))))
			}
			printedHeader = true
		}
		row := rows.Row()
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = graph.FormatValue(v)
		}
		fmt.Println(strings.Join(parts, " | "))
		count++
	}
	if err := rows.Err(); err != nil {
		return err
	}
	res := rows.Result()
	summary := fmt.Sprintf("%d rows in %v", count, time.Since(start))
	if res != nil && res.Cypher != nil && res.Cypher.Truncated {
		summary += " (truncated by the server row cap)"
	}
	if res != nil && res.Handle != "" {
		summary += " — stored as " + res.Handle
	}
	fmt.Fprintln(os.Stderr, summary)
	return nil
}

func loadGraph(path string, small bool) (*graph.Graph, error) {
	if path != "" {
		return graph.LoadFile(path)
	}
	cfg := iyp.DefaultConfig()
	if small {
		cfg = iyp.SmallConfig()
	}
	g, _, err := iyp.Build(cfg)
	return g, err
}

func run(g *graph.Graph, query string) error {
	// EXPLAIN prefix prints the access plan instead of executing.
	if rest, ok := strings.CutPrefix(strings.TrimSpace(query), "EXPLAIN "); ok {
		plan, err := cypher.Explain(g, rest, cypher.Options{})
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}
	start := time.Now()
	res, err := cypher.Execute(g, query, nil)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	if len(res.Columns) > 0 {
		fmt.Println(strings.Join(res.Columns, " | "))
		fmt.Println(strings.Repeat("-", len(strings.Join(res.Columns, " | "))))
	}
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = graph.FormatValue(v)
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	summary := fmt.Sprintf("%d rows in %v", len(res.Rows), elapsed)
	if res.Stats.Changed() {
		summary += fmt.Sprintf(" (created %d nodes, %d rels; set %d props; deleted %d nodes, %d rels)",
			res.Stats.NodesCreated, res.Stats.RelationshipsCreated, res.Stats.PropertiesSet,
			res.Stats.NodesDeleted, res.Stats.RelationshipsDeleted)
	}
	fmt.Fprintln(os.Stderr, summary)
	return nil
}
