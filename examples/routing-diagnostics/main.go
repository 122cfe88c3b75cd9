// Routing diagnostics: the workload the paper's introduction motivates —
// an engineer investigating a routing anomaly asks where a prefix comes
// from, whether RPKI authorizes it, and which upstreams the origin AS
// depends on, all in natural language. Every answer arrives with the
// Cypher query that produced it, and the example cross-checks each
// answer against a direct query on the graph.
package main

import (
	"context"
	"fmt"
	"log"

	"chatiyp"
)

func main() {
	// Perfect mode disables the simulated model's translation noise so
	// the diagnostic session is reliable (as a production deployment
	// with a stronger backbone would be).
	sys, err := chatiyp.New(chatiyp.Options{Perfect: true})
	if err != nil {
		log.Fatal(err)
	}

	// The "incident": pick a mid-size AS with prefixes, ROAs and
	// upstream dependencies from the ground truth.
	var subject struct {
		ASN    int64
		Prefix string
	}
	for _, as := range sys.World().ASes {
		if len(as.Prefixes) >= 3 && len(as.ROAPrefixes) >= 1 && len(as.Hegemons) >= 1 {
			subject.ASN = as.ASN
			subject.Prefix = as.Prefixes[0]
			break
		}
	}
	fmt.Printf("=== diagnosing routing for prefix %s ===\n\n", subject.Prefix)

	questions := []string{
		fmt.Sprintf("Which AS originates the prefix %s?", subject.Prefix),
		fmt.Sprintf("What is the name of AS%d?", subject.ASN),
		fmt.Sprintf("Which AS is authorized by a ROA to originate %s?", subject.Prefix),
		fmt.Sprintf("Which ASes does AS%d depend on?", subject.ASN),
		fmt.Sprintf("How many prefixes does AS%d originate?", subject.ASN),
		fmt.Sprintf("Which prefixes originated by AS%d lack a ROA?", subject.ASN),
	}
	for _, q := range questions {
		ans, err := sys.Ask(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Q:", q)
		fmt.Println("A:", ans.Text)
		fmt.Println("   cypher:", ans.Cypher)
		fmt.Println()
	}

	// Cross-check through the expert path: the origin reported in
	// natural language must match a direct graph query.
	res, err := sys.QueryContext(context.Background(),
		"MATCH (a:AS)-[:ORIGINATE]->(:Prefix {prefix: $p}) RETURN a.asn",
		map[string]any{"p": subject.Prefix})
	if err != nil {
		log.Fatal(err)
	}
	origin, _ := res.Value()
	fmt.Printf("cross-check — direct Cypher says the origin of %s is AS%v (expected AS%d)\n",
		subject.Prefix, origin, subject.ASN)
}
