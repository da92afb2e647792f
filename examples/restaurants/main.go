// restaurants is the classic top-k join scenario from the rank-join
// literature: find the best hotel + restaurant pairs in the same city,
// ranked by a weighted combination of their ratings. It demonstrates
// CSV-loaded relations with string join keys flowing through the rank-aware
// optimizer.
package main

import (
	"fmt"
	"log"
	"strings"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/exec"
	"rankopt/internal/plan"
	"rankopt/internal/relation"
	"rankopt/internal/sqlparse"
)

const hotelsCSV = `name:STRING,city:STRING,rating:FLOAT
Grand Plaza,paris,4.7
Canal View,amsterdam,4.5
Sakura Inn,tokyo,4.9
Harbor Light,amsterdam,3.9
Le Meurice,paris,4.8
Shinjuku Rest,tokyo,4.2
Old Mill,bruges,4.4
`

const restaurantsCSV = `name:STRING,city:STRING,rating:FLOAT
Chez Lune,paris,4.9
Stroopwafel & Co,amsterdam,4.1
Ramen Koji,tokyo,4.8
De Vlam,bruges,4.6
Bistro 9,paris,4.3
Kaiseki Hana,tokyo,4.7
Pancake Boat,amsterdam,4.4
`

func main() {
	cat := catalog.New()
	for name, src := range map[string]string{
		"Hotels":      hotelsCSV,
		"Restaurants": restaurantsCSV,
	} {
		rel, err := relation.ReadCSV(strings.NewReader(src), name)
		if err != nil {
			log.Fatal(err)
		}
		cat.AddTable(rel)
		// Ranked access on ratings, hash/lookup access on the join key.
		for _, col := range []string{"rating", "city"} {
			if _, err := cat.CreateIndex(name, col, false); err != nil {
				log.Fatal(err)
			}
		}
	}

	sql := `SELECT * FROM Hotels, Restaurants
	        WHERE Hotels.city = Restaurants.city
	        ORDER BY 0.6*Hotels.rating + 0.4*Restaurants.rating DESC
	        LIMIT 5`
	q, err := sqlparse.Parse(sql)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Optimize(cat, q, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("plan:")
	fmt.Print(plan.Explain(res.Best))

	op, err := plan.CompileWith(cat, res.Best, plan.Config{})
	if err != nil {
		log.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop hotel + restaurant pairs:")
	for _, row := range rows {
		n := len(row)
		fmt.Printf("  %s. %-13s + %-16s (%s)  score %.2f\n",
			row[n-1], row[0].AsString(), row[3].AsString(),
			row[1].AsString(), row[n-2].AsFloat())
	}
}
