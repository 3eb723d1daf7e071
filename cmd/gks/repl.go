package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	gks "repro"
)

// cmdRepl runs an interactive query loop against an index — the closest
// analog of the paper's demonstrated prototype [20]. Commands:
//
//	<query terms>        run a GKS search
//	:s N                 set the threshold s (0 = best effort)
//	:top N               set how many results to print
//	:di N                set how many insights to print
//	:baselines on|off    toggle SLCA/ELCA output
//	:schema              apply schema-aware categorization
//	:stats               print index statistics
//	:quit                exit
func cmdRepl(args []string) {
	fs := flag.NewFlagSet("repl", flag.ExitOnError)
	indexPath := fs.String("index", "", "saved index file")
	files := fs.String("files", "", "comma-separated XML files to index on the fly")
	fs.Parse(args)
	sys, err := loadSystem(*indexPath, *files)
	if err != nil {
		fatal(err)
	}
	st := sys.Stats()
	fmt.Printf("gks repl: %d documents, %d elements, %d entity nodes. Type :help for commands.\n",
		st.Documents, st.ElementNodes, st.EntityNodes)

	sThresh, top, diM := 1, 10, 3
	baselines := false
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 64*1024), 64*1024)
	fmt.Print("> ")
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		switch {
		case line == "":
		case line == ":quit" || line == ":q" || line == ":exit":
			return
		case line == ":help":
			fmt.Println("  <query>              search (quote phrases: \"Peter Buneman\")")
			fmt.Println("  :s N                 threshold (0 = best effort)")
			fmt.Println("  :top N / :di N       output sizes")
			fmt.Println("  :baselines on|off    SLCA/ELCA comparison")
			fmt.Println("  :schema              schema-aware categorization")
			fmt.Println("  :stats / :quit")
		case strings.HasPrefix(line, ":s "):
			if n, err := strconv.Atoi(strings.TrimSpace(line[3:])); err == nil {
				sThresh = n
				fmt.Printf("s = %d\n", sThresh)
			}
		case strings.HasPrefix(line, ":top "):
			if n, err := strconv.Atoi(strings.TrimSpace(line[5:])); err == nil && n > 0 {
				top = n
			}
		case strings.HasPrefix(line, ":di "):
			if n, err := strconv.Atoi(strings.TrimSpace(line[4:])); err == nil && n >= 0 {
				diM = n
			}
		case strings.HasPrefix(line, ":baselines"):
			baselines = strings.Contains(line, "on")
			fmt.Printf("baselines = %v\n", baselines)
		case line == ":schema":
			changed := sys.ApplySchemaCategorization()
			fmt.Printf("schema-aware categorization applied: %d node(s) changed\n", changed)
		case line == ":stats":
			st := sys.Stats()
			fmt.Printf("elements=%d AN=%d RN=%d EN=%d CN=%d keywords=%d\n",
				st.ElementNodes, st.AttributeNodes, st.RepeatingNodes,
				st.EntityNodes, st.ConnectingNodes, st.DistinctKeywords)
		case strings.HasPrefix(line, ":"):
			fmt.Println("unknown command; :help lists commands")
		default:
			runReplQuery(sys, line, sThresh, top, diM, baselines)
		}
		fmt.Print("> ")
	}
}

func runReplQuery(sys gks.Searcher, line string, sThresh, top, diM int, baselines bool) {
	q := gks.ParseQuery(line)
	resp, err := sys.Search(context.Background(), gks.SearchRequest{Query: q, S: sThresh, BestEffort: sThresh <= 0})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%d result(s) at s=%d, |S_L|=%d\n", len(resp.Results), resp.S, resp.SLSize)
	for i, r := range resp.Results {
		if i >= top {
			fmt.Printf("  ... %d more\n", len(resp.Results)-top)
			break
		}
		fmt.Printf("%3d. <%s> %s rank=%.3f %v\n", i+1, r.Label, r.ID, r.Rank, resp.KeywordsOf(r))
	}
	if diM > 0 {
		for _, in := range sys.Insights(resp, diM) {
			fmt.Printf("  DI: %s\n", in)
		}
	}
	if baselines {
		fmt.Printf("  SLCA: %v  ELCA: %v\n", orNull(sys.SLCA(q)), orNull(sys.ELCA(q)))
	}
}
